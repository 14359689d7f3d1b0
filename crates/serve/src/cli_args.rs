//! Argument checking shared by the `polygamy-store` subcommands and
//! `loadgen`.
//!
//! Not a module of the `polygamy_serve` library: each binary includes
//! this file with `#[path]`, so the helper adds no public API.
//!
//! A command declares the switches and the value flags it accepts.
//! [`Args::parse`] turns everything else that starts with `--`, and a
//! value flag with no value after it, into an error naming the flag —
//! so a typo or a forgotten value stops the command instead of silently
//! running it with defaults.

use std::str::FromStr;

/// One command's checked argument list.
pub(crate) struct Args<'a> {
    cmd: &'a str,
    positionals: Vec<&'a str>,
    switches: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Checks `args` against the command's `switches` (flags that stand
    /// alone) and `value_flags` (flags followed by one value). `cmd`
    /// prefixes every error this type produces; pass `""` for none.
    pub(crate) fn parse(
        cmd: &'a str,
        args: &'a [String],
        switches: &[&str],
        value_flags: &[&str],
    ) -> Result<Self, String> {
        let mut parsed = Args {
            cmd,
            positionals: Vec::new(),
            switches: Vec::new(),
            values: Vec::new(),
        };
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                parsed.positionals.push(arg);
            } else if switches.contains(&arg) {
                parsed.switches.push(arg);
            } else if value_flags.contains(&arg) {
                // A following `--word` is the next flag, not this one's
                // value (negative numbers start with a single dash).
                match rest.next().filter(|v| !v.starts_with("--")) {
                    Some(value) => parsed.values.push((arg, value)),
                    None => return Err(parsed.error(format!("{arg} expects a value"))),
                }
            } else {
                return Err(parsed.error(format!("unknown flag {arg}")));
            }
        }
        Ok(parsed)
    }

    fn error(&self, msg: String) -> String {
        if self.cmd.is_empty() {
            msg
        } else {
            format!("{}: {msg}", self.cmd)
        }
    }

    /// The arguments that are neither flags nor flag values, in order.
    pub(crate) fn positionals(&self) -> &[&'a str] {
        &self.positionals
    }

    /// True when the switch was given.
    pub(crate) fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The value flag's value, if the flag was given.
    pub(crate) fn value(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }

    /// The value flag's value parsed as `T` and checked with `ok`;
    /// `what` completes the error "`<flag>` expects …".
    pub(crate) fn parsed<T: FromStr>(
        &self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .ok()
                    .filter(&ok)
                    .ok_or_else(|| self.error(format!("{flag} expects {what}")))
            })
            .transpose()
    }
}
