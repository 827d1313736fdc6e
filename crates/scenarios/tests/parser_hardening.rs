//! Hardening tests for the hand-rolled TOML-subset and JSON parsers
//! (PR 5 satellite): edge cases the manifest/report surface can hit, plus a
//! fuzz-ish proptest that round-trips generated manifests.

use nncps_scenarios::toml::{self, TomlValue};
use nncps_scenarios::{families_from_toml_str, Json, Registry};
use proptest::prelude::*;

// --- TOML edge cases -------------------------------------------------------

#[test]
fn toml_numbers_with_signed_exponents() {
    let doc = toml::parse("a = -2.5e-3\nb = 1E+6\nc = 4e2\nd = -1.25E-12\ne = 0.5e+0\nf = -0.0\n")
        .unwrap();
    assert_eq!(doc.get_f64("a"), Some(-2.5e-3));
    assert_eq!(doc.get_f64("b"), Some(1e6));
    assert_eq!(doc.get_f64("c"), Some(400.0));
    assert_eq!(doc.get_f64("d"), Some(-1.25e-12));
    assert_eq!(doc.get_f64("e"), Some(0.5));
    assert_eq!(doc.get_f64("f").unwrap().to_bits(), (-0.0f64).to_bits());
}

#[test]
fn toml_trailing_comments_everywhere() {
    let doc = toml::parse(
        r##"
        a = 1            # after an integer
        [table]          # after a header
        b = [1, 2]       # after an array
        c = "x # y"      # hash inside a string is not a comment
        # a full-line comment
        [[rows]]         # after an array-of-tables header
        d = true         # after a bool
        "##,
    )
    .unwrap();
    assert_eq!(doc.get_usize("a"), Some(1));
    assert_eq!(doc.get_table("table").unwrap().get_str("c"), Some("x # y"));
    assert_eq!(doc.tables("rows")[0].get("d"), Some(&TomlValue::Bool(true)));
}

#[test]
fn toml_deep_nesting_parses_up_to_the_cap() {
    // 30 levels parse fine (the manifests use 2)...
    let deep = format!("x = {}1.5{}\n", "[".repeat(30), "]".repeat(30));
    let doc = toml::parse(&deep).unwrap();
    let mut value = doc.get("x").unwrap();
    for _ in 0..30 {
        value = &value.as_array().unwrap()[0];
    }
    assert_eq!(value.as_f64(), Some(1.5));

    // ...and pathological nesting is a clean error, not a stack overflow.
    let too_deep = format!("x = {}1{}\n", "[".repeat(200), "]".repeat(200));
    let err = toml::parse(&too_deep).unwrap_err();
    assert!(err.to_string().contains("nest"), "{err}");

    // Deep *table* paths are iterative and uncapped.
    let path: Vec<String> = (0..64).map(|i| format!("t{i}")).collect();
    let doc = toml::parse(&format!("[{}]\nleaf = 9\n", path.join("."))).unwrap();
    let mut table = &doc;
    for key in &path {
        table = table.get_table(key).unwrap();
    }
    assert_eq!(table.get_usize("leaf"), Some(9));
}

#[test]
fn toml_duplicate_keys_and_headers_error() {
    // Duplicate key in the root.
    assert!(toml::parse("a = 1\na = 2\n")
        .unwrap_err()
        .to_string()
        .contains("duplicate key"));
    // Duplicate key inside a section.
    assert!(toml::parse("[t]\na = 1\na = 2\n")
        .unwrap_err()
        .to_string()
        .contains("duplicate key"));
    // Redefining a [table] header is an error...
    assert!(toml::parse("[t]\na = 1\n[t]\nb = 2\n")
        .unwrap_err()
        .to_string()
        .contains("duplicate table header"));
    // ...including nested ones within the same array element.
    let redefined = "[[s]]\n[s.plant]\nkind = \"linear\"\n[s.plant]\nwidth = 2\n";
    assert!(toml::parse(redefined)
        .unwrap_err()
        .to_string()
        .contains("duplicate table header"));
    // But the same sub-table under *different* [[s]] elements is the normal
    // manifest layout and stays legal.
    let legal = "[[s]]\n[s.plant]\nkind = \"a\"\n[[s]]\n[s.plant]\nkind = \"b\"\n";
    let doc = toml::parse(legal).unwrap();
    assert_eq!(doc.tables("s").len(), 2);
    // Mixing [x] and [[x]] on one name is rejected in both orders.
    assert!(toml::parse("[x]\na = 1\n[[x]]\nb = 2\n").is_err());
    assert!(toml::parse("[[x]]\na = 1\n[x]\nb = 2\n").is_err());
}

#[test]
fn family_axis_tables_nest_after_subtables() {
    // The exact shape that exposed the array-tail navigation bug: a
    // [family.counts] sub-table followed by more [[family.axis]] elements.
    let doc = toml::parse(
        r#"
        [[family]]
        name = "f"
        [family.counts]
        certified = 1
        inconclusive = 0
        [[family.axis]]
        param = "delta"
        [[family.axis]]
        param = "gamma"
        [[family]]
        name = "g"
        [[family.axis]]
        param = "seed"
        "#,
    )
    .unwrap();
    let families = doc.tables("family");
    assert_eq!(families.len(), 2);
    assert_eq!(families[0].tables("axis").len(), 2);
    assert_eq!(
        families[0]
            .get_table("counts")
            .unwrap()
            .get_usize("certified"),
        Some(1)
    );
    assert_eq!(families[1].tables("axis").len(), 1);
    assert_eq!(families[1].tables("axis")[0].get_str("param"), Some("seed"));
}

#[test]
fn manifest_rejects_the_removed_smt_threads_key() {
    // The δ-SAT search has one sequential loop, so `smt_threads` is no
    // longer a config key: a manifest naming it fails like any other
    // unknown key instead of being silently ignored.
    let manifest = r#"
        [[scenario]]
        name = "linear-smt-threads"
        expected = "certified"
        [scenario.plant]
        kind = "linear"
        matrix = [[-1.0, 0.2], [-0.2, -1.0]]
        [scenario.spec]
        initial_set = [[-0.5, 0.5], [-0.5, 0.5]]
        safe_region = [[-3.0, 3.0], [-3.0, 3.0]]
        [scenario.config]
        smt_threads = 4
        "#;
    let err = Registry::from_toml_str(manifest).unwrap_err();
    assert!(
        err.to_string().contains("unknown config key `smt_threads`"),
        "{err}"
    );
    // The same manifest without the key loads.
    let accepted = manifest.replace("smt_threads = 4", "threads = 1");
    assert_eq!(Registry::from_toml_str(&accepted).unwrap().len(), 1);
}

/// A valid linear scenario whose `[scenario.config]` table is `config`.
fn linear_manifest(config: &str) -> String {
    format!(
        r#"
        [[scenario]]
        name = "linear-bad-config"
        expected = "certified"
        [scenario.plant]
        kind = "linear"
        matrix = [[-1.0, 0.2], [-0.2, -1.0]]
        [scenario.spec]
        initial_set = [[-0.5, 0.5], [-0.5, 0.5]]
        safe_region = [[-3.0, 3.0], [-3.0, 3.0]]
        [scenario.config]
        {config}
        "#
    )
}

#[test]
fn manifest_configs_are_validated_at_load() {
    // Out-of-range values must be a manifest error naming the scenario and
    // the field, not a panic deep in the solver (unchecked, `delta = 0`
    // reaches `DeltaSolver::new`'s positivity assert).
    for (config, field) in [("delta = 0.0", "delta"), ("sim_dt = -1.0", "sim_dt")] {
        let err = Registry::from_toml_str(&linear_manifest(config)).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("linear-bad-config"), "{message}");
        assert!(message.contains(field), "{message}");
    }
    assert_eq!(
        Registry::from_toml_str(&linear_manifest("delta = 1e-3"))
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn family_axis_values_are_validated_per_member() {
    // A `delta` grid holding 0.0 expands to a member with an invalid
    // config: expansion fails with the family and member named.
    let manifest = format!(
        r#"{}
        [[family]]
        name = "zero-delta"
        base = "linear-bad-config"
        [[family.axis]]
        param = "delta"
        grid = [1e-3, 0.0]
        "#,
        linear_manifest("num_seed_traces = 4")
    );
    let families = families_from_toml_str(&manifest, &Registry::builtin()).unwrap();
    assert_eq!(families.len(), 1);
    assert!(families[0].member(0).is_ok());
    let err = families[0].expand().unwrap_err().to_string();
    assert!(err.contains("family `zero-delta`, member 1"), "{err}");
    assert!(err.contains("delta"), "{err}");
}

// --- JSON edge cases -------------------------------------------------------

#[test]
fn json_numbers_with_negative_exponents_round_trip() {
    for text in ["-2.5e-3", "1e-300", "6.342e-3", "-0.0", "9007199254740993"] {
        let value = Json::parse(text).unwrap();
        let expected: f64 = text.parse().unwrap();
        assert_eq!(
            value.as_f64().unwrap().to_bits(),
            expected.to_bits(),
            "{text}"
        );
    }
    assert!(Json::parse("1e").is_err());
    assert!(Json::parse("--1").is_err());
    assert!(Json::parse("1.2.3").is_err());
}

#[test]
fn json_nesting_is_capped_cleanly() {
    let fine = format!("{}0{}", "[".repeat(100), "]".repeat(100));
    assert!(Json::parse(&fine).is_ok());
    let too_deep = format!("{}0{}", "[".repeat(500), "]".repeat(500));
    let err = Json::parse(&too_deep).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
    // Objects count against the same cap.
    let deep_objects = format!("{}1{}", "{\"k\": ".repeat(500), "}".repeat(500));
    assert!(Json::parse(&deep_objects).is_err());
}

#[test]
fn json_malformed_documents_error_instead_of_panicking() {
    for text in [
        "",
        "[1, 2",
        "{\"a\": }",
        "{\"a\" 1}",
        "[1 2]",
        "\"unterminated",
        "\"bad \\q escape\"",
        "\"trunc \\u12",
        "nul",
        "[1], trailing",
        "{\"a\": 1} extra",
    ] {
        assert!(Json::parse(text).is_err(), "accepted: {text}");
    }
}

// --- fuzz-ish round-trips --------------------------------------------------

/// A generated scalar and its TOML spelling.
fn render_scalar(kind: usize, number: f64, string_len: usize) -> (String, TomlValue) {
    match kind % 5 {
        0 => {
            let n = (number * 1e3) as i64;
            (format!("{n}"), TomlValue::Integer(n))
        }
        1 => (format!("{number:?}"), TomlValue::Float(number)),
        // Exponent spelling; `{:e}` output (e.g. `-3.25e-2`) parses back to
        // the same bits.
        2 => (format!("{number:e}"), TomlValue::Float(number)),
        3 => (format!("{}", number > 0.0), TomlValue::Bool(number > 0.0)),
        _ => {
            let s: String = "quoted #\\\" strings"
                .chars()
                .cycle()
                .take(string_len)
                .collect();
            let escaped = s.replace('\\', "\\\\").replace('"', "\\\"");
            (format!("\"{escaped}\""), TomlValue::String(s))
        }
    }
}

proptest! {
    /// Generated manifests — scalar values, nested numeric arrays, section
    /// tables, array-of-tables — parse back to exactly the structure they
    /// were rendered from.
    #[test]
    fn toml_round_trips_generated_manifests(
        entries in collection::vec(
            (0..5usize, -1.0e4..1.0e4f64, 1..18usize, 0..3usize),
            1..10,
        ),
        matrix in collection::vec(collection::vec(-1.0e3..1.0e3f64, 1..4), 1..4),
        sections in 0..3usize,
    ) {
        let mut text = String::new();
        // Root scalars.
        let mut expected_root = Vec::new();
        for (i, &(kind, number, string_len, comment)) in entries.iter().enumerate() {
            let (rendered, value) = render_scalar(kind, number, string_len);
            let suffix = match comment {
                0 => String::new(),
                1 => "   # trailing comment".to_string(),
                _ => "\t".to_string(),
            };
            text.push_str(&format!("key{i} = {rendered}{suffix}\n"));
            expected_root.push((format!("key{i}"), value));
        }
        // A nested numeric array (the `initial_set`-shaped payload).
        let rendered_rows: Vec<String> = matrix
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|x| format!("{x:?}")).collect();
                format!("[{}]", cells.join(", "))
            })
            .collect();
        text.push_str(&format!("matrix = [{}]\n", rendered_rows.join(", ")));
        // Sections and array-of-tables elements.
        for s in 0..sections {
            text.push_str(&format!("[section{s}]\ninner = {s}\n"));
            text.push_str(&format!("[[section{s}.rows]]\nid = {s}\n"));
        }

        let doc = toml::parse(&text).unwrap();
        for (key, value) in &expected_root {
            prop_assert_eq!(doc.get(key), Some(value), "key {} in\n{}", key, text);
        }
        let parsed_matrix = doc.get("matrix").unwrap().as_array().unwrap();
        prop_assert_eq!(parsed_matrix.len(), matrix.len());
        for (row, expected_row) in parsed_matrix.iter().zip(&matrix) {
            let cells = row.as_array().unwrap();
            prop_assert_eq!(cells.len(), expected_row.len());
            for (cell, expected_cell) in cells.iter().zip(expected_row) {
                prop_assert_eq!(
                    cell.as_f64().unwrap().to_bits(),
                    expected_cell.to_bits()
                );
            }
        }
        for s in 0..sections {
            let section = doc.get_table(&format!("section{s}")).unwrap();
            prop_assert_eq!(section.get_usize("inner"), Some(s));
            prop_assert_eq!(section.tables("rows")[0].get_usize("id"), Some(s));
        }
    }

    /// Generated JSON documents survive `to_string` → `parse` bit-exactly
    /// (the property the deterministic batch reports rely on).
    #[test]
    fn json_round_trips_generated_documents(
        numbers in collection::vec(-1.0e6..1.0e6f64, 1..12),
        strings in collection::vec(1..24usize, 0..4),
        nest in 0..4usize,
    ) {
        let mut fields: Vec<(String, Json)> = vec![
            ("numbers".to_string(), Json::numbers(&numbers)),
            ("exponent".to_string(), Json::Number(numbers[0] * 1e-9)),
            ("flag".to_string(), Json::Bool(numbers[0] > 0.0)),
            ("nothing".to_string(), Json::Null),
        ];
        for (i, len) in strings.iter().enumerate() {
            let s: String = "παν\"\\\n\tascii".chars().cycle().take(*len).collect();
            fields.push((format!("s{i}"), Json::String(s)));
        }
        let mut doc = Json::Object(fields);
        for _ in 0..nest {
            doc = Json::Array(vec![doc, Json::Number(numbers[0])]);
        }
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        prop_assert_eq!(back, doc, "text: {}", text);
    }
}
