//! The harness parameters: `CSCE_TIME_LIMIT` (seconds per run) and
//! `CSCE_REPEATS` (patterns per configuration), read one way by every
//! binary. Each must be a positive integer; an unset variable takes the
//! binary's default, and anything else is a [`UsageError`] naming it.

use std::fmt;

/// A bad harness parameter or argument. Its `Debug` form is the message,
/// so a `main` returning `Result<(), UsageError>` prints it as is.
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for UsageError {}

/// Read the positive-integer parameter `name` from the environment,
/// `default` when it is unset.
pub fn env_param(name: &str, default: usize) -> Result<usize, UsageError> {
    parse_param(name, std::env::var(name).ok().as_deref(), default)
}

/// [`env_param`] on an already-read value.
fn parse_param(name: &str, raw: Option<&str>, default: usize) -> Result<usize, UsageError> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    match raw.trim().parse::<usize>() {
        Ok(v) if v > 0 => Ok(v),
        _ => Err(UsageError(format!("{name} must be a positive integer, got {raw:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_takes_the_default() {
        assert_eq!(parse_param("CSCE_REPEATS", None, 3).ok(), Some(3));
    }

    #[test]
    fn positive_integers_parse() {
        assert_eq!(parse_param("CSCE_REPEATS", Some("7"), 3).ok(), Some(7));
        assert_eq!(parse_param("CSCE_TIME_LIMIT", Some(" 2 "), 10).ok(), Some(2));
    }

    #[test]
    fn bad_values_name_the_variable() {
        for raw in ["abc", "0", "-1", "1.5", ""] {
            let err = parse_param("CSCE_REPEATS", Some(raw), 3).err().map(|e| e.to_string());
            let msg = err.unwrap_or_else(|| panic!("{raw:?} must be rejected"));
            assert!(msg.starts_with("CSCE_REPEATS must be a positive integer"), "{msg}");
        }
    }
}
