//! Minimal flag parsing (no external dependency).

use std::collections::HashMap;

/// Parsed `--key value` flags.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses `--key value` pairs and bare `--switch`es. Only the names in
    /// `values` take a value and only those in `switches` stand alone;
    /// anything else is `unknown flag --X`, so a typo or a removed option
    /// fails loudly instead of being ignored. Stray or dangling arguments
    /// are errors too.
    pub fn parse(args: &[String], values: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut parsed = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = &args[i];
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected a --flag, got `{key}`"));
            };
            if switches.contains(&name) {
                parsed.insert(name.to_owned(), "true".to_owned());
                i += 1;
                continue;
            }
            if !values.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let Some(value) = args.get(i + 1) else {
                return Err(format!("flag --{name} is missing its value"));
            };
            parsed.insert(name.to_owned(), value.clone());
            i += 2;
        }
        Ok(Flags { values: parsed })
    }

    /// Whether a boolean switch was given.
    pub fn is_set(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The raw value of a flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A required flag's value.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// A parsed flag with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse `{v}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_pairs() {
        let f = Flags::parse(&sv(&["--seed", "7", "--scale", "paper"]), &["seed", "scale"], &[])
            .unwrap();
        assert_eq!(f.get("seed"), Some("7"));
        assert_eq!(f.get_parsed::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(f.get_parsed::<u64>("missing", 42).unwrap(), 42);
    }

    #[test]
    fn rejects_danglers_and_positional() {
        assert!(Flags::parse(&sv(&["--seed"]), &["seed"], &[]).is_err());
        assert!(Flags::parse(&sv(&["seed", "7"]), &["seed"], &[]).is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        let err = Flags::parse(&sv(&["--non-stak", "100"]), &["non-stack"], &[]).unwrap_err();
        assert_eq!(err, "unknown flag --non-stak");
        // A value flag is not a switch, nor the other way round.
        let err = Flags::parse(&sv(&["--salvage", "x"]), &[], &["salvage"]).unwrap_err();
        assert_eq!(err, "expected a --flag, got `x`");
        let err = Flags::parse(&sv(&["--threads", "2"]), &["log"], &["salvage"]).unwrap_err();
        assert_eq!(err, "unknown flag --threads");
    }

    #[test]
    fn switches_take_no_value() {
        let f = Flags::parse(&sv(&["--streaming", "--seed", "7"]), &["seed"], &["streaming"])
            .unwrap();
        assert!(f.is_set("streaming"));
        assert_eq!(f.get_parsed::<u64>("seed", 0).unwrap(), 7);
        let f = Flags::parse(&sv(&["--seed", "7"]), &["seed"], &["streaming"]).unwrap();
        assert!(!f.is_set("streaming"));
    }

    #[test]
    fn require_reports_missing() {
        let f = Flags::parse(&[], &[], &[]).unwrap();
        assert!(f.require("log").unwrap_err().contains("--log"));
    }
}
