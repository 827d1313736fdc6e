//! `nncps-serve` — the resident verification server.
//!
//! A thin TCP shim over [`nncps_scenarios::ServeEngine`]: one thread per
//! connection, one request line in, one or more response lines out (see the
//! protocol grammar in the `serve` module docs and ARCHITECTURE.md).  The
//! engine owns everything interesting — the family catalogue, the shared
//! verification session, the worker pool, and the optional on-disk
//! outcome store — so this binary is only sockets and lines.
//!
//! ```text
//! cargo run --release --bin nncps-serve -- --store /var/cache/nncps
//! cargo run --release --bin nncps-serve -- --listen 127.0.0.1:7171
//! cargo run --release --bin nncps-serve -- --manifest extra-families.toml
//!
//! # Then, from a client:
//! cargo run --release --bin nncps-batch -- --connect 127.0.0.1:7171 --family all
//! ```
//!
//! The first stdout line is always `nncps-serve: listening on ADDR` (flushed
//! before the first accept), so scripts can bind port `0` and scrape the
//! ephemeral address.  A `shutdown` request stops the accept loop, drains
//! in-flight work, and exits cleanly; killing the process with SIGTERM is
//! also safe at any time because store writes are staged in a scratch
//! directory and published with atomic renames — a half-written entry never
//! becomes visible.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nncps_scenarios::{
    builtin_families, families_from_toml_str, Directive, Registry, ServeEngine, ServeOptions,
};

const USAGE: &str = "usage: nncps-serve [--listen ADDR] [--store DIR] [--threads N] \
                     [--manifest FILE.toml]";

#[derive(Debug)]
struct Args {
    listen: String,
    store: Option<String>,
    threads: usize,
    manifest: Option<String>,
}

/// Parses the CLI; `Ok(None)` means `--help` was requested.
fn parse_args(argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        // Port 0 binds an ephemeral port; the scraped banner line is the
        // contract, not a fixed port.
        listen: "127.0.0.1:0".to_string(),
        store: None,
        threads: 0,
        manifest: None,
    };
    let mut argv = argv;
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--store" => args.store = Some(value("--store")?),
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("invalid --threads: {e}"))?
            }
            "--manifest" => args.manifest = Some(value("--manifest")?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

/// One connection: read request lines, write response lines, stop on EOF or
/// a `shutdown` request (which also stops the accept loop).
fn serve_connection(engine: &ServeEngine, stream: TcpStream, shutdown: &AtomicBool) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".to_string());
    let reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(e) => {
            eprintln!("nncps-serve: cannot clone stream of {peer}: {e}");
            return;
        }
    });
    let mut writer = BufWriter::new(stream);
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            // A vanished client is normal teardown, not a server error.
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let mut broken = false;
        let directive = engine.handle_line(&line, &mut |reply| {
            // Keep verifying even if the client hangs up mid-stream: the
            // results still land in the shared caches for the next client.
            if !broken {
                broken = writeln!(writer, "{reply}").is_err() || writer.flush().is_err();
            }
        });
        if directive == Directive::Shutdown {
            shutdown.store(true, Ordering::SeqCst);
            break;
        }
        if broken {
            break;
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut families = builtin_families();
    if let Some(path) = &args.manifest {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest {path}: {e}"))?;
        families.extend(
            families_from_toml_str(&text, &Registry::builtin()).map_err(|e| e.to_string())?,
        );
    }
    let engine = Arc::new(ServeEngine::new(
        families,
        &ServeOptions {
            threads: args.threads,
            store: args.store.as_ref().map(std::path::PathBuf::from),
        },
    )?);

    let listener =
        TcpListener::bind(&args.listen).map_err(|e| format!("cannot bind {}: {e}", args.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    // The scrapeable banner: always the first stdout line, flushed before
    // the first accept so a spawning script never races it.
    println!("nncps-serve: listening on {addr}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot flush banner: {e}"))?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let mut connections = Vec::new();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let engine = Arc::clone(&engine);
                let shutdown_flag = Arc::clone(&shutdown);
                let handle = std::thread::spawn(move || {
                    serve_connection(&engine, stream, &shutdown_flag);
                    // Unblock the accept loop so it observes the flag
                    // promptly instead of waiting for the next client.
                    if shutdown_flag.load(Ordering::SeqCst) {
                        let _ = TcpStream::connect(addr);
                    }
                });
                connections.push(handle);
            }
            Err(e) => eprintln!("nncps-serve: accept failed: {e}"),
        }
        // Reap finished handlers so a long-lived server does not
        // accumulate joined-but-unreaped threads.
        connections.retain(|handle| !handle.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
    eprintln!("nncps-serve: shutting down");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("nncps-serve: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("nncps-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Option<Args>, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_with_defaults_and_diagnostics() {
        let args = parse(&[]).unwrap().unwrap();
        assert_eq!(args.listen, "127.0.0.1:0");
        assert_eq!(args.threads, 0);
        assert!(args.store.is_none());

        let args = parse(&[
            "--listen",
            "127.0.0.1:7171",
            "--store",
            "/tmp/s",
            "--threads",
            "3",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(args.listen, "127.0.0.1:7171");
        assert_eq!(args.store.as_deref(), Some("/tmp/s"));
        assert_eq!(args.threads, 3);

        assert!(parse(&["--help"]).unwrap().is_none());
        let err = parse(&["--threads", "many"]).unwrap_err();
        assert!(err.contains("invalid --threads"), "{err}");
        let err = parse(&["--port", "1"]).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }
}
