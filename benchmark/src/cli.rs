//! Command-line arguments: `--name value` pairs and bare `--flags`.

use std::str::FromStr;

pub struct Args(Vec<String>);

impl Args {
    pub fn new(args: Vec<String>) -> Self {
        Self(args)
    }

    /// The first argument when it is not a `--flag`: the mode.
    pub fn mode(&self) -> Option<&str> {
        self.0.first().map(String::as_str).filter(|a| !a.starts_with("--"))
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The argument following `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    /// The two arguments following `name`.
    pub fn pair(&self, name: &str) -> Option<(&str, &str)> {
        let i = self.0.iter().position(|a| a == name)?;
        Some((self.0.get(i + 1)?, self.0.get(i + 2)?))
    }

    /// `value(name)` parsed; an unparsable value is an error, not a default.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None if self.has(name) => Err(format!("{name} needs a value")),
            None => Ok(None),
            Some(raw) => {
                raw.parse().map(Some).map_err(|_| format!("{name}: cannot read {raw:?}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::new(s.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn values_flags_pairs_and_modes() {
        let a = args("child --workload sim_4x4 --seed 7 --smoke --compare a.json b.json");
        assert_eq!(a.mode(), Some("child"));
        assert_eq!(a.value("--workload"), Some("sim_4x4"));
        assert_eq!(a.parsed::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(a.parsed::<u64>("--repeats"), Ok(None));
        assert!(a.has("--smoke") && !a.has("--trace"));
        assert_eq!(a.pair("--compare"), Some(("a.json", "b.json")));
        assert_eq!(args("--seed 1").mode(), None);
        assert!(args("--seed x").parsed::<u64>("--seed").is_err());
        assert!(args("--seed").parsed::<u64>("--seed").is_err());
    }
}
