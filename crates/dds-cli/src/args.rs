//! Minimal hand-rolled argument parsing (the offline dependency set has
//! no clap): `--key value` options and positional words.

use std::collections::BTreeMap;

/// Parsed command line: positionals plus `--key value` options.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--key value` pairs (`--flag` with no value maps to "true").
    pub options: BTreeMap<String, String>,
}

impl Args {
    /// Parse from an iterator of argument strings (without argv[0]).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty option name".into());
                }
                // A following token that is not itself an option is the value.
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                if out.options.insert(key.to_string(), value).is_some() {
                    return Err(format!("duplicate option --{key}"));
                }
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Parsed numeric option with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Boolean flag (present = true).
    pub fn flag(&self, key: &str) -> bool {
        self.options.get(key).is_some_and(|v| v != "false")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn positionals_and_options() {
        let a = parse("simulate --n 128 --protocol triangle --record-stats").unwrap();
        assert_eq!(a.positional, vec!["simulate"]);
        assert_eq!(a.get_or("protocol", "x"), "triangle");
        assert_eq!(a.num_or("n", 0usize).unwrap(), 128);
        assert!(a.flag("record-stats"));
        assert!(!a.flag("csv"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("simulate").unwrap();
        assert_eq!(a.get_or("workload", "er"), "er");
        assert_eq!(a.num_or("rounds", 300usize).unwrap(), 300);
    }

    #[test]
    fn duplicate_options_rejected() {
        assert!(parse("x --n 1 --n 2").is_err());
    }

    #[test]
    fn bad_numbers_rejected() {
        let a = parse("x --n twelve").unwrap();
        assert!(a.num_or("n", 0usize).is_err());
    }
}
