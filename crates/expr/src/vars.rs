//! Named variable registry.

use std::collections::HashMap;
use std::fmt;

use crate::Expr;

/// A registry mapping human-readable variable names to expression indices.
///
/// The expression tree itself only knows variable *indices*; a [`VarSet`]
/// keeps the association with names such as `d_err` and `theta_err` so that
/// models, SMT queries, and diagnostics all agree on the ordering.
///
/// # Examples
///
/// ```
/// use nncps_expr::VarSet;
///
/// let mut vars = VarSet::new();
/// let d = vars.var("d_err");
/// let th = vars.var("theta_err");
/// assert_eq!(vars.len(), 2);
/// assert_eq!(th.as_var(), Some(1));
/// let f = d + th.clone().sin();
/// assert_eq!(f.num_vars(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarSet {
    names: Vec<String>,
    indices: HashMap<String, usize>,
}

impl VarSet {
    /// Creates an empty variable set.
    pub fn new() -> Self {
        VarSet::default()
    }

    fn push(&mut self, name: String) -> usize {
        let index = self.names.len();
        self.indices.insert(name.clone(), index);
        self.names.push(name);
        index
    }

    /// Returns the expression for the named variable, registering the name if
    /// it has not been seen before.
    pub fn var(&mut self, name: &str) -> Expr {
        let index = match self.indices.get(name) {
            Some(&i) => i,
            None => self.push(name.to_string()),
        };
        Expr::var(index)
    }

    /// Number of registered variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no variables are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterator over the registered names in index order.
    pub fn iter(&self) -> std::slice::Iter<'_, String> {
        self.names.iter()
    }

    /// All registered names in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, name) in self.names.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "x{i}={name}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut vars = VarSet::new();
        let a = vars.var("a");
        let a_again = vars.var("a");
        assert_eq!(a.as_var(), a_again.as_var());
        assert_eq!(vars.len(), 1);
        let b = vars.var("b");
        assert_eq!(b.as_var(), Some(1));
        assert_eq!(vars.len(), 2);
        assert!(!vars.is_empty());
    }

    fn xyz() -> VarSet {
        let mut vars = VarSet::new();
        for name in ["x", "y", "z"] {
            let _ = vars.var(name);
        }
        vars
    }

    #[test]
    fn lookup_by_name_and_index() {
        let mut vars = xyz();
        assert_eq!(vars.var("y").as_var(), Some(1));
        assert_eq!(vars.var("z").as_var(), Some(2));
        assert_eq!(vars.names(), &["x", "y", "z"]);
        let collected: Vec<&String> = vars.iter().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn display_lists_name_bindings() {
        let mut vars = VarSet::new();
        let _ = vars.var("d_err");
        let _ = vars.var("theta_err");
        let s = format!("{vars}");
        assert!(s.contains("x0=d_err"));
        assert!(s.contains("x1=theta_err"));
    }

    #[test]
    fn empty_set() {
        let vars = VarSet::new();
        assert!(vars.is_empty());
        assert_eq!(vars.len(), 0);
    }
}
