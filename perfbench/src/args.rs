//! Strict command-line parsing: every flag is required exactly once,
//! and an unknown flag, workload name or unparseable value is an error
//! rather than a silent default.

use std::fmt;

/// Usage line printed with every argument error.
pub const USAGE: &str = "usage: perfbench --workload <bulk|serve_low> --seed <u64> \
                         --seconds <1..=600> --trace <0|1>";

/// The two workloads the benchmark defines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Offline bulk inference on every engine, 4096 operands per call.
    Bulk,
    /// Open-loop Poisson arrivals at a fixed low rate.
    ServeLow,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, ArgError> {
        match name {
            "bulk" => Ok(Self::Bulk),
            "serve_low" => Ok(Self::ServeLow),
            other => Err(ArgError(format!("unknown workload `{other}`"))),
        }
    }

    /// The workload's name as passed on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::Bulk => "bulk",
            Self::ServeLow => "serve_low",
        }
    }
}

/// Parsed, validated arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A rejected command line.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`, each
    /// given exactly once as `--flag value`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| ArgError(format!("`{flag}` needs a value")))?;
            let duplicate = match flag.as_str() {
                "--workload" => workload.replace(Workload::parse(&value)?).is_some(),
                "--seed" => seed.replace(parse_u64(&flag, &value)?).is_some(),
                "--seconds" => {
                    let s = parse_u64(&flag, &value)?;
                    if !(1..=600).contains(&s) {
                        return Err(ArgError(format!("`--seconds {s}` is outside 1..=600")));
                    }
                    seconds.replace(s).is_some()
                }
                "--trace" => {
                    let t = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(ArgError(format!("`--trace {value}` is not 0 or 1"))),
                    };
                    trace.replace(t).is_some()
                }
                _ => return Err(ArgError(format!("unknown argument `{flag}`"))),
            };
            if duplicate {
                return Err(ArgError(format!("`{flag}` given twice")));
            }
        }
        let missing = |name: &str| ArgError(format!("missing `--{name}`"));
        Ok(Self {
            workload: workload.ok_or_else(|| missing("workload"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            seconds: seconds.ok_or_else(|| missing("seconds"))?,
            trace: trace.ok_or_else(|| missing("trace"))?,
        })
    }
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, ArgError> {
    value
        .parse()
        .map_err(|_| ArgError(format!("`{flag} {value}` is not a non-negative integer")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, ArgError> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn accepts_a_full_command_line_in_any_order() {
        let args = parse("--trace 1 --seed 7 --workload serve_low --seconds 10").unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::ServeLow,
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_input_instead_of_defaulting() {
        let ok = "--workload bulk --seed 1 --seconds 10 --trace 0";
        assert!(parse(ok).is_ok());
        for bad in [
            "--workload bulky --seed 1 --seconds 10 --trace 0",
            "--workload bulk --seed x1 --seconds 10 --trace 0",
            "--workload bulk --seed -1 --seconds 10 --trace 0",
            "--workload bulk --seed 1 --seconds 0 --trace 0",
            "--workload bulk --seed 1 --seconds 10 --trace 2",
            "--workload bulk --seed 1 --seconds 10",
            "--workload bulk --seed 1 --seconds 10 --trace 0 --seed 2",
            "--workload bulk --seed 1 --seconds 10 --trace 0 --verbose 1",
            "--workload bulk --seed 1 --seconds 10 --trace",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
