//! Typed command-line parsing shared by every binary in this crate.
//!
//! Each binary used to hand-roll its own `--flag value` scanning loop;
//! those loops drifted (some ignored unknown flags, some silently
//! swallowed unparsable values). This module is the single parsing
//! surface: flags are *taken* out of the token list as they are matched,
//! values parse into typed errors instead of silent defaults, and
//! [`Args::finish`] rejects whatever is left over, so a typo like
//! `--sample` fails loudly instead of running a 20-minute grid with the
//! default sample count.
//!
//! # Examples
//!
//! ```
//! use trident_bench::args::Args;
//!
//! let mut args = Args::new(vec!["--seed".into(), "7".into(), "--fragment".into()]);
//! assert_eq!(args.parsed_or::<u64>("--seed", 42).unwrap(), 7);
//! assert!(args.flag("--fragment"));
//! args.finish().unwrap();
//! ```

use std::fmt;

use trident_sim::check_scale;
use trident_sim::experiments::ExpOptions;

/// What went wrong while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A value-taking flag appeared without a following value.
    MissingValue {
        /// The flag, e.g. `--seed`.
        flag: String,
    },
    /// A flag's value failed to parse.
    InvalidValue {
        /// The flag, e.g. `--seed`.
        flag: String,
        /// The offending token.
        value: String,
        /// What the flag expects, e.g. `a non-negative integer`.
        expected: &'static str,
    },
    /// A token was not consumed by any flag or positional.
    Unknown {
        /// The leftover token.
        token: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue { flag } => write!(f, "{flag} needs a value"),
            ArgError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} {value:?} is invalid: expected {expected}"),
            ArgError::Unknown { token } => write!(f, "unrecognized argument {token:?}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl ArgError {
    /// Prints the error (and a hint to the binary's usage) on stderr and
    /// exits with the conventional usage status 2.
    pub fn exit(&self, usage: &str) -> ! {
        eprintln!("error: {self}");
        eprintln!("{usage}");
        std::process::exit(2);
    }
}

/// A token list that flags are *taken out of* as they are matched.
///
/// Every accessor removes what it consumed, so [`Args::finish`] can
/// report precisely the tokens nothing claimed.
#[derive(Debug, Clone)]
pub struct Args {
    /// `None` marks a consumed token; positions are stable so
    /// flag/value adjacency survives earlier takes.
    tokens: Vec<Option<String>>,
}

impl Args {
    /// Wraps an explicit token list (tests, or pre-split strings).
    #[must_use]
    pub fn new(tokens: Vec<String>) -> Args {
        Args {
            tokens: tokens.into_iter().map(Some).collect(),
        }
    }

    /// Wraps `std::env::args` minus the binary name.
    #[must_use]
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1).collect())
    }

    /// Takes a boolean flag: `true` if present (all occurrences are
    /// consumed).
    pub fn flag(&mut self, name: &str) -> bool {
        let mut seen = false;
        for slot in &mut self.tokens {
            if slot.as_deref() == Some(name) {
                *slot = None;
                seen = true;
            }
        }
        seen
    }

    /// Takes `name VALUE`, returning the raw value if the flag is
    /// present.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingValue`] when the flag is the last token or its
    /// value was already consumed by another flag.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, ArgError> {
        let Some(at) = self.tokens.iter().position(|t| t.as_deref() == Some(name)) else {
            return Ok(None);
        };
        self.tokens[at] = None;
        match self.tokens.get_mut(at + 1).and_then(Option::take) {
            Some(v) => Ok(Some(v)),
            None => Err(ArgError::MissingValue {
                flag: name.to_owned(),
            }),
        }
    }

    /// Takes `name VALUE` and parses the value.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingValue`] or [`ArgError::InvalidValue`].
    pub fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, ArgError> {
        match self.value(name)? {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| ArgError::InvalidValue {
                flag: name.to_owned(),
                value: raw,
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// [`parsed`](Args::parsed) with a default for an absent flag.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingValue`] or [`ArgError::InvalidValue`].
    pub fn parsed_or<T: std::str::FromStr>(
        &mut self,
        name: &str,
        default: T,
    ) -> Result<T, ArgError> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// Takes the first remaining token that does not look like a flag —
    /// the conventional positional argument (a file path, a subcommand).
    pub fn positional(&mut self) -> Option<String> {
        self.tokens
            .iter_mut()
            .find(|t| t.as_deref().is_some_and(|s| !s.starts_with("--")))
            .and_then(Option::take)
    }

    /// Takes `--scale N`, or `default` when absent, refusing a scale the
    /// simulator cannot run at ([`check_scale`]).
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingValue`] or [`ArgError::InvalidValue`].
    pub fn scale(&mut self, default: u64) -> Result<u64, ArgError> {
        let scale = self.parsed_or("--scale", default)?;
        match check_scale(scale) {
            Ok(()) => Ok(scale),
            Err(_) => Err(ArgError::InvalidValue {
                flag: "--scale".to_owned(),
                value: scale.to_string(),
                expected: "a power of two from 1 to 256",
            }),
        }
    }

    /// Takes the standard experiment flags (`--scale`, `--samples`,
    /// `--seed`, `--threads`) into an [`ExpOptions`], starting from its
    /// defaults. Tracing and profiling stay off: an experiment prints
    /// only its CSV, and `tridentctl run --trace-out` / `--profile-out`
    /// observe one cell.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingValue`] or [`ArgError::InvalidValue`] for any
    /// of the standard flags, a `--scale` that [`Args::scale`] refuses
    /// among them.
    pub fn exp_options(&mut self) -> Result<ExpOptions, ArgError> {
        let mut opts = ExpOptions::default();
        opts.scale = self.scale(opts.scale)?;
        opts.samples = self.parsed_or("--samples", opts.samples)?;
        opts.seed = self.parsed_or("--seed", opts.seed)?;
        opts.threads = self.parsed_or("--threads", opts.threads)?;
        Ok(opts)
    }

    /// Rejects anything no flag or positional consumed.
    ///
    /// # Errors
    ///
    /// [`ArgError::Unknown`] carrying the first leftover token.
    pub fn finish(self) -> Result<(), ArgError> {
        match self.tokens.into_iter().flatten().next() {
            None => Ok(()),
            Some(token) => Err(ArgError::Unknown { token }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::new(tokens.iter().map(|s| (*s).to_owned()).collect())
    }

    #[test]
    fn flags_and_values_are_consumed() {
        let mut a = args(&["--fragment", "--seed", "9", "run.jsonl"]);
        assert!(a.flag("--fragment"));
        assert!(!a.flag("--fragment"), "consumed on first take");
        assert_eq!(a.parsed::<u64>("--seed").unwrap(), Some(9));
        assert_eq!(a.positional().as_deref(), Some("run.jsonl"));
        a.finish().unwrap();
    }

    #[test]
    fn missing_value_is_typed() {
        let mut a = args(&["--seed"]);
        assert_eq!(
            a.value("--seed"),
            Err(ArgError::MissingValue {
                flag: "--seed".to_owned()
            })
        );
    }

    #[test]
    fn invalid_value_reports_flag_and_token() {
        let mut a = args(&["--scale", "huge"]);
        let err = a.parsed::<u64>("--scale").unwrap_err();
        assert!(matches!(err, ArgError::InvalidValue { .. }));
        assert!(err.to_string().contains("--scale"));
        assert!(err.to_string().contains("huge"));
    }

    #[test]
    fn leftover_tokens_fail_finish() {
        let a = args(&["--sample", "9"]);
        // A typo for --samples: nothing consumes it.
        let err = a.clone().finish().unwrap_err();
        assert_eq!(
            err,
            ArgError::Unknown {
                token: "--sample".to_owned()
            }
        );
        drop(a);
    }

    #[test]
    fn exp_options_parses_the_standard_flags() {
        let mut a = args(&[
            "--scale",
            "64",
            "--samples",
            "9000",
            "--seed",
            "7",
            "--threads",
            "3",
        ]);
        let opts = a.exp_options().unwrap();
        assert_eq!(opts.scale, 64);
        assert_eq!(opts.samples, 9000);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.threads, 3);
        a.finish().unwrap();
    }

    #[test]
    fn exp_options_refuses_scales_the_simulator_cannot_run() {
        for scale in ["0", "3", "512"] {
            let err = args(&["--scale", scale]).exp_options().unwrap_err();
            assert_eq!(
                err,
                ArgError::InvalidValue {
                    flag: "--scale".to_owned(),
                    value: scale.to_owned(),
                    expected: "a power of two from 1 to 256",
                }
            );
        }
    }

    #[test]
    fn exp_options_defaults_when_absent() {
        let mut a = args(&[]);
        assert_eq!(a.exp_options().unwrap(), ExpOptions::default());
    }

    #[test]
    fn positional_skips_flags() {
        let mut a = args(&["--json", "out.json", "trace.jsonl"]);
        assert_eq!(a.positional().as_deref(), Some("out.json"));
        // Positional-before-value ordering matters: take values first.
        let mut b = args(&["--json", "out.json", "trace.jsonl"]);
        assert_eq!(b.value("--json").unwrap().as_deref(), Some("out.json"));
        assert_eq!(b.positional().as_deref(), Some("trace.jsonl"));
        b.finish().unwrap();
    }
}
