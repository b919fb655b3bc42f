//! Shared command-line parsing for every `tsocc` subcommand.
//!
//! The subcommands speak one dialect — `--budget-ms N`, `--seed N`,
//! `--out PATH`, `--jobs N`, and (where protocols are selectable) a
//! repeatable `--protocol NAME` that is mutually exclusive with
//! `--all-configs` — plus subcommand-specific extras. Each subcommand
//! declares its flags against a [`Cli`] spec; the spec drives both
//! parsing and a uniform `--help` page, so the entry points cannot
//! drift apart flag by flag.
//!
//! Parsing is deliberately strict: an unknown flag, a missing value, a
//! non-numeric argument to a numeric flag, a bad entry in a list, or an
//! unknown scale or protocol name aborts with the usage page on stderr
//! and exit status 2 (`--help` prints the same page to stdout and exits
//! 0). There is no partial parse to misread.

use tsocc_protocols::Protocol;
use tsocc_workloads::Scale;

/// One declared flag: its name, an optional value placeholder (`None`
/// marks a boolean switch), and the help line.
struct FlagSpec {
    name: &'static str,
    value: Option<&'static str>,
    /// The value may be omitted (`--check` vs `--check PATH`); the next
    /// argument is consumed as the value only when it does not look
    /// like another flag.
    value_optional: bool,
    help: &'static str,
}

/// A subcommand's command-line specification. Build with the chainable
/// [`Cli::opt`] / [`Cli::switch`] / [`Cli::positional`] (plus the
/// shared [`Cli::campaign_flags`] / [`Cli::protocol_flags`] blocks),
/// then call [`Cli::parse`].
pub struct Cli {
    bin: &'static str,
    about: &'static str,
    specs: Vec<FlagSpec>,
    /// Placeholder and help line for bare (non-flag) arguments; `None`
    /// rejects them.
    positional: Option<(&'static str, &'static str)>,
}

/// The parsed command line: flag occurrences in order, queried through
/// the typed accessors on this type.
pub struct ParsedArgs {
    bin: &'static str,
    usage: String,
    values: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Cli {
    /// Starts a spec for command `bin` (as the user types it, e.g.
    /// `tsocc sweep`) with the one-line description shown at the top
    /// of `--help`.
    pub fn new(bin: &'static str, about: &'static str) -> Self {
        Cli {
            bin,
            about,
            specs: Vec::new(),
            positional: None,
        }
    }

    /// Accepts any number of bare arguments (shown as `value...` in
    /// the usage page), read back through [`ParsedArgs::positionals`].
    pub fn positional(mut self, value: &'static str, help: &'static str) -> Self {
        self.positional = Some((value, help));
        self
    }

    /// Declares a flag that takes one value (shown as `value` in the
    /// usage page).
    pub fn opt(mut self, name: &'static str, value: &'static str, help: &'static str) -> Self {
        self.specs.push(FlagSpec {
            name,
            value: Some(value),
            value_optional: false,
            help,
        });
        self
    }

    /// Declares a flag whose value may be omitted (`--check` or
    /// `--check PATH`): the following argument is consumed as the value
    /// only when it does not start with `-`.
    pub fn opt_default(
        mut self,
        name: &'static str,
        value: &'static str,
        help: &'static str,
    ) -> Self {
        self.specs.push(FlagSpec {
            name,
            value: Some(value),
            value_optional: true,
            help,
        });
        self
    }

    /// Declares a boolean switch (present or absent, no value).
    pub fn switch(mut self, name: &'static str, help: &'static str) -> Self {
        self.specs.push(FlagSpec {
            name,
            value: None,
            value_optional: false,
            help,
        });
        self
    }

    /// The flag block every campaign shares: wall-clock budget, seed,
    /// and report path.
    pub fn campaign_flags(self) -> Self {
        self.opt("--budget-ms", "N", "wall-clock budget in milliseconds")
            .opt("--seed", "N", "base RNG seed")
            .opt("--out", "PATH", "JSON report output path")
    }

    /// The protocol-selection block: a repeatable `--protocol NAME`
    /// (any `Protocol::from_name` display name) and `--all-configs`.
    pub fn protocol_flags(self) -> Self {
        self.opt(
            "--protocol",
            "NAME",
            "protocol configuration by display name, e.g. MESI-P2-G2 \
             (repeatable; replaces the default list)",
        )
        .switch("--all-configs", "run every sweep configuration instead")
    }

    /// Parses a subcommand's arguments (everything after the
    /// subcommand word). Handles `--help`/`-h` (usage to stdout, exit
    /// 0) and rejects anything not declared (usage to stderr, exit 2).
    pub fn parse(self, args: Vec<String>) -> ParsedArgs {
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", self.usage());
            std::process::exit(0);
        }
        match self.try_parse(&args) {
            Ok(parsed) => parsed,
            Err(msg) => {
                eprint!("{}: {msg}\n\n{}", self.bin, self.usage());
                std::process::exit(2);
            }
        }
    }

    /// The fallible core of [`Cli::parse`], separated for unit tests.
    fn try_parse(&self, args: &[String]) -> Result<ParsedArgs, String> {
        let mut values = Vec::new();
        let mut positionals = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            if !arg.starts_with('-') {
                match self.positional {
                    Some(_) => positionals.push(arg.clone()),
                    None => return Err(format!("unexpected argument {arg:?}")),
                }
                continue;
            }
            let spec = self
                .specs
                .iter()
                .find(|s| s.name == arg.as_str())
                .ok_or_else(|| format!("unknown flag {arg:?}"))?;
            let value = match spec.value {
                Some(_) if spec.value_optional => {
                    // Only a non-flag-looking argument binds as the
                    // value; `--check --fast` leaves `--check` bare.
                    match iter.peek() {
                        Some(next) if !next.starts_with('-') => iter.next().cloned(),
                        _ => None,
                    }
                }
                Some(_) => Some(
                    iter.next()
                        .ok_or_else(|| format!("{} needs an argument", spec.name))?
                        .clone(),
                ),
                None => None,
            };
            values.push((spec.name, value));
        }
        Ok(ParsedArgs {
            bin: self.bin,
            usage: self.usage(),
            values,
            positionals,
        })
    }

    /// Renders the `--help` page.
    fn usage(&self) -> String {
        let mut page = format!("{} — {}\n\nusage: {}", self.bin, self.about, self.bin);
        for spec in &self.specs {
            match spec.value {
                Some(v) if spec.value_optional => page.push_str(&format!(" [{} [{v}]]", spec.name)),
                Some(v) => page.push_str(&format!(" [{} {v}]", spec.name)),
                None => page.push_str(&format!(" [{}]", spec.name)),
            }
        }
        if let Some((value, help)) = self.positional {
            page.push_str(&format!(" {value}...\n\n  {value}  {help}"));
        }
        page.push_str("\n\nflags:\n");
        let width = self
            .specs
            .iter()
            .map(|s| s.name.len() + s.value.map_or(0, |v| v.len() + 3))
            .max()
            .unwrap_or(0);
        for spec in &self.specs {
            let head = match spec.value {
                Some(v) if spec.value_optional => format!("{} [{v}]", spec.name),
                Some(v) => format!("{} {v}", spec.name),
                None => spec.name.to_string(),
            };
            page.push_str(&format!("  {head:width$}  {}\n", spec.help));
        }
        page.push_str(&format!("  {:width$}  print this page\n", "--help"));
        page
    }
}

impl ParsedArgs {
    /// Rejects the command line: `msg` and the usage page on stderr,
    /// exit status 2 — the same exit an undeclared flag gets.
    pub fn fail(&self, msg: impl std::fmt::Display) -> ! {
        eprint!("{}: {msg}\n\n{}", self.bin, self.usage);
        std::process::exit(2);
    }

    /// Last occurrence of a value flag, unparsed.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Last occurrence of a numeric flag; aborts on a non-number.
    pub fn u64(&self, name: &str) -> Option<u64> {
        self.str(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                self.fail(format!("{name} needs a numeric argument, got {v:?}"))
            })
        })
    }

    /// [`ParsedArgs::u64`] narrowed to `usize`.
    pub fn usize(&self, name: &str) -> Option<usize> {
        self.u64(name).map(|v| v as usize)
    }

    /// Last occurrence of a comma-separated list of numbers
    /// (`--cores 2,4,8`); aborts on any entry that is not a number.
    pub fn usize_list(&self, name: &str) -> Option<Vec<usize>> {
        self.str(name).map(|v| {
            v.split(',')
                .map(|entry| {
                    entry.trim().parse().unwrap_or_else(|_| {
                        self.fail(format!(
                            "{name} needs comma-separated numbers, got {entry:?} in {v:?}"
                        ))
                    })
                })
                .collect()
        })
    }

    /// Last occurrence of a workload-scale flag; aborts on anything but
    /// a [`Scale::name`].
    pub fn scale(&self, name: &str) -> Option<Scale> {
        self.str(name).map(|v| {
            Scale::from_name(v).unwrap_or_else(|| {
                self.fail(format!("{name} must be tiny, small or full, got {v:?}"))
            })
        })
    }

    /// The bare arguments, in order (see [`Cli::positional`]).
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether a boolean switch was given.
    pub fn present(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _)| *n == name)
    }

    /// Every occurrence of a repeatable value flag, in order.
    pub fn all(&self, name: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(n, _)| *n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    /// Resolves the shared protocol-selection block: `--protocol`
    /// occurrences replace `default`, `--all-configs` swaps in
    /// [`Protocol::sweep_configs`], and giving both aborts.
    pub fn protocols(&self, default: Vec<Protocol>) -> Vec<Protocol> {
        let named = self.all("--protocol");
        if self.present("--all-configs") {
            if !named.is_empty() {
                self.fail("--all-configs and --protocol are mutually exclusive");
            }
            return Protocol::sweep_configs();
        }
        if named.is_empty() {
            return default;
        }
        named
            .into_iter()
            .map(|name| {
                Protocol::from_name(name).unwrap_or_else(|| {
                    self.fail(format!("unknown protocol configuration {name:?}"))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Cli {
        Cli::new("demo", "test spec")
            .campaign_flags()
            .protocol_flags()
            .switch("--fast", "a switch")
            .opt_default("--check", "PATH", "an optional-value flag")
    }

    fn parse(args: &[&str]) -> Result<ParsedArgs, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        spec().try_parse(&owned)
    }

    #[test]
    fn parses_shared_flags() {
        let args = parse(&["--budget-ms", "1500", "--seed", "9", "--fast"]).unwrap();
        assert_eq!(args.u64("--budget-ms"), Some(1500));
        assert_eq!(args.u64("--seed"), Some(9));
        assert!(args.present("--fast"));
        assert_eq!(args.str("--out"), None);
    }

    #[test]
    fn last_occurrence_wins_and_repeats_accumulate() {
        let args = parse(&[
            "--out",
            "a.json",
            "--out",
            "b.json",
            "--protocol",
            "MESI",
            "--protocol",
            "MESI-P2-G2",
        ])
        .unwrap();
        assert_eq!(args.str("--out"), Some("b.json"));
        assert_eq!(args.all("--protocol"), vec!["MESI", "MESI-P2-G2"]);
        let protocols = args.protocols(vec![]);
        assert_eq!(protocols.len(), 2);
        assert_eq!(protocols[0].name(), "MESI");
        assert_eq!(protocols[1].name(), "MESI-P2-G2");
    }

    #[test]
    fn unknown_flags_and_missing_values_are_rejected() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        // Bare words are only accepted by a spec that declares them.
        assert!(parse(&["fig3"]).is_err());
    }

    #[test]
    fn positionals_collect_in_order_around_flags() {
        let owned: Vec<String> = ["fig3", "--seed", "4", "table1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = spec()
            .positional("SEL", "what to render")
            .try_parse(&owned)
            .unwrap();
        assert_eq!(args.positionals(), ["fig3", "table1"]);
        assert_eq!(args.u64("--seed"), Some(4));
    }

    #[test]
    fn optional_value_flags_bind_only_non_flag_arguments() {
        // Bare: flag present, no value.
        let args = parse(&["--check"]).unwrap();
        assert!(args.present("--check"));
        assert_eq!(args.str("--check"), None);
        // With a value.
        let args = parse(&["--check", "a.json"]).unwrap();
        assert_eq!(args.str("--check"), Some("a.json"));
        // Followed by another flag: the flag is not eaten as a value.
        let args = parse(&["--check", "--fast"]).unwrap();
        assert!(args.present("--check") && args.present("--fast"));
        assert_eq!(args.str("--check"), None);
    }

    #[test]
    fn usage_lists_every_flag() {
        let page = spec().usage();
        for flag in [
            "--budget-ms",
            "--seed",
            "--out",
            "--protocol",
            "--all-configs",
            "--fast",
            "--help",
        ] {
            assert!(page.contains(flag), "usage page is missing {flag}:\n{page}");
        }
    }
}
