//! Strict arguments for the bench bins.
//!
//! A missing positional argument takes its default; anything else must
//! parse and reach its minimum, and an argument a bin does not take is
//! rejected.  A typo is an error — the bin prints it with its usage
//! line and exits with code 2, as `perfbench` does — never a silently
//! different experiment or output file.
//!
//! # Example
//!
//! ```
//! use tm_async_bench::args::positional;
//!
//! assert_eq!(positional(None, "operands", 64, 1), Ok(64));
//! assert_eq!(positional(Some("8".into()), "operands", 64, 1), Ok(8));
//! assert!(positional(Some("25x6".into()), "operands", 64, 1).is_err());
//! assert!(positional(Some("0".into()), "operands", 64, 1).is_err());
//! ```

use std::fmt;
use std::str::FromStr;

/// A rejected command-line argument.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// The positional argument `name`: `default` when `arg` is missing,
/// else its parsed value, which must be at least `min`.
///
/// # Errors
///
/// Returns an [`ArgError`] naming the argument if `arg` does not parse
/// or is below `min`.
pub fn positional<T>(arg: Option<String>, name: &str, default: T, min: T) -> Result<T, ArgError>
where
    T: FromStr + PartialOrd + fmt::Display,
{
    let Some(text) = arg else {
        return Ok(default);
    };
    let value: T = text
        .parse()
        .map_err(|_| ArgError(format!("{name}: `{text}` is not a valid number")))?;
    if value >= min {
        Ok(value)
    } else {
        Err(ArgError(format!(
            "{name}: {value} is below the minimum of {min}"
        )))
    }
}

/// The optional `--json <path>` flag: `None` when `args` is empty.
///
/// # Errors
///
/// Returns an [`ArgError`] for any other argument, for a `--json`
/// without a path and for anything after the path.
pub fn json_flag(mut args: impl Iterator<Item = String>) -> Result<Option<String>, ArgError> {
    let path = match args.next() {
        None => return Ok(None),
        Some(flag) if flag == "--json" => args
            .next()
            .ok_or_else(|| ArgError("--json: missing path".into()))?,
        Some(other) => return Err(ArgError(format!("unknown argument `{other}`"))),
    };
    no_more(args)?;
    Ok(Some(path))
}

/// Rejects whatever is left of `args` once a bin has read every
/// argument it takes.
///
/// # Errors
///
/// Returns an [`ArgError`] naming the first argument left over.
pub fn no_more(mut args: impl Iterator<Item = String>) -> Result<(), ArgError> {
    match args.next() {
        None => Ok(()),
        Some(extra) => Err(ArgError(format!("unexpected argument `{extra}`"))),
    }
}

/// The parsed value, or — on an error — the error and `usage` on
/// stderr and exit code 2.
pub fn or_exit<T>(parsed: Result<T, ArgError>, usage: &str) -> T {
    parsed.unwrap_or_else(|error| {
        eprintln!("error: {error}\n{usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_argument_takes_the_default() {
        assert_eq!(positional(None, "operands", 4096, 1), Ok(4096));
    }

    #[test]
    fn valid_values_parse_including_the_minimum() {
        assert_eq!(positional(Some("256".into()), "operands", 4096, 1), Ok(256));
        assert_eq!(positional(Some("64".into()), "requests", 2048, 64), Ok(64));
        assert_eq!(positional(Some("1".into()), "operands", 4096, 1), Ok(1));
    }

    #[test]
    fn unparseable_values_are_errors() {
        for text in ["25x6", "", " 8", "-1", "1e3", "eight"] {
            let error = positional(Some(text.into()), "operands", 4096, 1).unwrap_err();
            assert!(
                error.to_string().starts_with("operands: "),
                "{text:?}: {error}"
            );
        }
    }

    fn strings<'a>(args: &'a [&str]) -> impl Iterator<Item = String> + 'a {
        args.iter().map(|arg| (*arg).to_string())
    }

    #[test]
    fn the_json_flag_is_optional_and_takes_one_path() {
        assert_eq!(json_flag(strings(&[])), Ok(None));
        assert_eq!(
            json_flag(strings(&["--json", "r.json"])),
            Ok(Some("r.json".into()))
        );
    }

    #[test]
    fn unknown_missing_and_extra_json_arguments_are_errors() {
        for (args, message) in [
            (&["--jsn", "r.json"][..], "unknown argument `--jsn`"),
            (&["r.json"][..], "unknown argument `r.json`"),
            (&["--json"][..], "--json: missing path"),
            (&["--json", "r.json", "x"][..], "unexpected argument `x`"),
        ] {
            assert_eq!(
                json_flag(strings(args)).unwrap_err().to_string(),
                message,
                "{args:?}"
            );
        }
    }

    #[test]
    fn leftover_arguments_are_errors() {
        assert_eq!(no_more(strings(&[])), Ok(()));
        assert_eq!(
            no_more(strings(&["b.json", "2048"]))
                .unwrap_err()
                .to_string(),
            "unexpected argument `b.json`"
        );
    }

    #[test]
    fn values_below_the_minimum_are_errors() {
        let error = positional(Some("0".into()), "operands", 4096, 1).unwrap_err();
        assert_eq!(error.to_string(), "operands: 0 is below the minimum of 1");
        assert!(positional(Some("63".into()), "requests", 2048, 64).is_err());
    }
}
