//! Minimal dependency-free argument parsing for the `spade` binary.
//!
//! The workspace deliberately stays within its approved dependency set, so
//! this is a small hand-rolled parser: positional arguments plus
//! `--flag value` options, with typed accessors and helpful errors.

use std::collections::HashMap;

/// Parsed command line: subcommand, positionals, and `--key value` options.
#[derive(Debug, Default, Clone)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` pairs (bare `--key` stores an empty string).
    pub options: HashMap<String, String>,
}

/// Parse errors with the offending token.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// An option required a value (e.g. `--metric` at end of line).
    MissingValue(String),
    /// An option value failed to parse.
    BadValue {
        /// Option name.
        option: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Options the subcommand does not read, sorted.
    UnknownOptions {
        /// The subcommand.
        command: String,
        /// The options it would silently ignore.
        options: Vec<String>,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand; try `spade help`"),
            ArgError::MissingValue(opt) => write!(f, "option --{opt} requires a value"),
            ArgError::BadValue { option, value, expected } => {
                write!(f, "option --{option}: expected {expected}, got {value:?}")
            }
            ArgError::UnknownOptions { command, options } => {
                let options: Vec<String> = options.iter().map(|o| format!("--{o}")).collect();
                write!(f, "`{command}` does not take {}; see `spade help`", options.join(", "))
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw tokens (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().unwrap(),
                    _ => String::new(),
                };
                args.options.insert(key.to_string(), value);
            } else if args.command.is_empty() {
                args.command = tok;
            } else {
                args.positional.push(tok);
            }
        }
        if args.command.is_empty() {
            return Err(ArgError::MissingCommand);
        }
        Ok(args)
    }

    /// A string option with a default.
    pub fn str_opt(&self, key: &str, default: &str) -> String {
        match self.options.get(key) {
            Some(v) if !v.is_empty() => v.clone(),
            _ => default.to_string(),
        }
    }

    /// A numeric option with a default.
    pub fn num_opt<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            Some(v) if !v.is_empty() => v.parse::<T>().map_err(|_| ArgError::BadValue {
                option: key.to_string(),
                value: v.clone(),
                expected: std::any::type_name::<T>(),
            }),
            Some(v) => Err(ArgError::MissingValue(format!("{key} (got {v:?})"))),
            None => Ok(default),
        }
    }

    /// Whether a bare flag is present.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Refuses any option outside `known`, the options the subcommand
    /// reads, so a mistyped or unsupported one is an error instead of
    /// being silently ignored.
    pub fn only(&self, known: &[&str]) -> Result<(), ArgError> {
        let mut options: Vec<String> =
            self.options.keys().filter(|key| !known.contains(&key.as_str())).cloned().collect();
        if options.is_empty() {
            return Ok(());
        }
        options.sort_unstable();
        Err(ArgError::UnknownOptions { command: self.command.clone(), options })
    }

    /// The n-th positional argument, if present.
    pub fn pos(&self, n: usize) -> Option<&str> {
        self.positional.get(n).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, ArgError> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_positionals_and_options() {
        let a = parse("detect edges.txt --metric fd --top 5").unwrap();
        assert_eq!(a.command, "detect");
        assert_eq!(a.pos(0), Some("edges.txt"));
        assert_eq!(a.str_opt("metric", "dg"), "fd");
        assert_eq!(a.num_opt("top", 1usize).unwrap(), 5);
    }

    #[test]
    fn defaults_apply_when_options_absent() {
        let a = parse("detect edges.txt").unwrap();
        assert_eq!(a.str_opt("metric", "dg"), "dg");
        assert_eq!(a.num_opt("top", 3usize).unwrap(), 3);
        assert!(!a.flag("grouping"));
    }

    #[test]
    fn bare_flags_are_detected() {
        let a = parse("stream edges.txt --grouping --batch 100").unwrap();
        assert!(a.flag("grouping"));
        assert_eq!(a.num_opt("batch", 1usize).unwrap(), 100);
    }

    #[test]
    fn missing_command_is_an_error() {
        assert_eq!(parse("").unwrap_err(), ArgError::MissingCommand);
        assert_eq!(parse("--metric fd").unwrap_err(), ArgError::MissingCommand);
    }

    #[test]
    fn options_outside_the_known_set_are_refused_by_name() {
        let a = parse("serve f --shards 4 --partition conn --rebalance").unwrap();
        assert_eq!(a.only(&["shards", "partition", "rebalance"]), Ok(()));
        let err = a.only(&["shards"]).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownOptions {
                command: "serve".into(),
                options: vec!["partition".into(), "rebalance".into()],
            }
        );
        assert_eq!(
            err.to_string(),
            "`serve` does not take --partition, --rebalance; see `spade help`"
        );
    }

    #[test]
    fn bad_numeric_value_reports_context() {
        let a = parse("gen --scale abc").unwrap();
        let err = a.num_opt("scale", 0.01f64).unwrap_err();
        assert!(matches!(err, ArgError::BadValue { .. }));
        assert!(err.to_string().contains("scale"));
    }
}
