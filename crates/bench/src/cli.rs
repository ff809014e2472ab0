//! The one flag parser of the five binaries. A bad command line prints the
//! reason and the binary's usage line and exits 2.

use std::str::FromStr;

/// The arguments not yet consumed, plus the usage line to fail with.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    rest: Vec<String>,
}

impl Args {
    /// The process's arguments.
    pub fn from_env(usage: &'static str) -> Args {
        Args {
            usage,
            rest: std::env::args().skip(1).collect(),
        }
    }

    /// Print `msg` and the usage line, exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2);
    }

    /// Whether the switch `name` was given (consumes it).
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    /// The value of `name VALUE`, if given (consumes both).
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let at = self.rest.iter().position(|a| a == name)?;
        if at + 1 == self.rest.len() {
            self.fail(&format!("{name} requires a value"));
        }
        let raw = self.rest.remove(at + 1);
        self.rest.remove(at);
        match raw.parse() {
            Ok(v) => Some(v),
            Err(_) => self.fail(&format!("{name}: cannot read `{raw}`")),
        }
    }

    /// The positional arguments, with every flag consumed.
    pub fn rest(&mut self) -> Vec<String> {
        if let Some(flag) = self.rest.iter().find(|a| a.starts_with("--")) {
            self.fail(&format!("unknown flag {flag}"));
        }
        std::mem::take(&mut self.rest)
    }

    /// Exactly `n` positional arguments, with every flag consumed.
    pub fn positionals(&mut self, n: usize) -> Vec<String> {
        let got = self.rest.iter().filter(|a| !a.starts_with("--")).count();
        if got != n {
            self.fail(&format!("expected {n} positional arguments, got {got}"));
        }
        self.rest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_and_values_are_consumed_wherever_they_stand() {
        let rest = ["old.json", "--fail-above", "0.5", "--recover", "new.json"];
        let mut args = Args {
            usage: "usage",
            rest: rest.map(String::from).to_vec(),
        };
        assert!(args.flag("--recover"));
        assert!(!args.flag("--recover"), "consumed");
        assert_eq!(args.value::<f64>("--fail-above"), Some(0.5));
        assert_eq!(args.value::<u64>("--seed"), None);
        assert_eq!(args.positionals(2), ["old.json", "new.json"]);
    }
}
