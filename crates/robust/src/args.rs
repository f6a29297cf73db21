//! The workspace's one command-line parser, behind `darksil` and
//! `repro`. A binary declares each command once, as a [`Spec`] with a
//! table of [`Flag`]s: [`parse`] reads argv against it in one pass and
//! the help renderers ([`flag_words`], [`reference()`]) read the same
//! table, so a flag cannot be accepted but undocumented. The [`GLOBAL`]
//! flags, `--jobs N` and `--help`/`-h`, are accepted anywhere.

use std::fmt;
use std::str::FromStr;

/// A usage error: the message printed before the usage text (exit 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

impl From<&str> for ParseError {
    fn from(message: &str) -> Self {
        Self(message.to_string())
    }
}

impl From<String> for ParseError {
    fn from(message: String) -> Self {
        Self(message)
    }
}

/// One flag a command accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed, e.g. `--json`.
    pub name: &'static str,
    /// Placeholder for its value in help (`DIR`); `None` for a switch.
    pub value: Option<&'static str>,
    /// Completes "`<name>` expects …" when the value is missing.
    pub expects: &'static str,
    /// Whether the command needs it ([`Args::require`]).
    pub required: bool,
    /// Its entry in a flag [`reference()`]; empty where help is prose.
    pub help: &'static str,
}

impl Flag {
    /// A flag followed by a value, shown as `value` in help.
    #[must_use]
    pub const fn value(name: &'static str, value: &'static str, expects: &'static str) -> Self {
        Self {
            name,
            value: Some(value),
            expects,
            required: false,
            help: "",
        }
    }

    /// A flag that takes no value.
    #[must_use]
    pub const fn switch(name: &'static str) -> Self {
        let mut flag = Self::value(name, "", "");
        flag.value = None;
        flag
    }

    /// The same flag, marked required.
    #[must_use]
    pub const fn required(mut self) -> Self {
        self.required = true;
        self
    }

    /// The same flag, with its entry for a flag [`reference()`].
    #[must_use]
    pub const fn help(mut self, help: &'static str) -> Self {
        self.help = help;
        self
    }
}

/// `--jobs N`, the worker count; it lands in the engine's default.
const JOBS: Flag = Flag::value("--jobs", "N", "a value").help(
    "worker threads (default: DARKSIL_JOBS, else the available parallelism; an \
     unparseable DARKSIL_JOBS is ignored with a warning); --jobs 1 runs serially",
);

/// The flags every command line accepts, anywhere on the line.
pub const GLOBAL: [Flag; 2] = [
    JOBS,
    Flag::switch("--help").help("print this help and exit (also -h)"),
];

/// One command of a binary.
#[derive(Debug)]
pub struct Spec<C> {
    /// The words that select it (`"trace summarize"`); empty for a
    /// binary with one command.
    pub words: &'static str,
    /// Synopsis of its operands (`<spec.json>`).
    pub operands: &'static str,
    /// Most operands it takes; one more is an unknown argument.
    pub max_operands: usize,
    /// Its flags.
    pub flags: &'static [Flag],
    /// Builds the binary's value for the command, with its own checks.
    pub build: fn(&Args) -> Result<C, ParseError>,
}

/// What a command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed<C> {
    /// `--help` or `-h` appeared anywhere, or no command was named.
    Help,
    /// A command, with `--jobs` when it was given.
    Run(C, Option<usize>),
}

/// A command line as read against its command's flag table.
#[derive(Debug)]
pub struct Args {
    table: &'static [Flag],
    /// The operands, in order.
    pub operands: Vec<String>,
    /// Every flag given, with its value (empty for a switch), in order.
    given: Vec<(&'static str, String)>,
}

/// Reads `argv` (without the program name) against `specs`: leading
/// words select the command, a flag takes the next argument as its
/// value whatever it looks like, and the rest are operands unless they
/// start with `-`. `--jobs N` may come anywhere, even between a flag
/// and its value.
///
/// # Errors
///
/// An unknown command or argument, a flag without its value, a bad
/// `--jobs`, or what the command's [`Spec::build`] refuses.
pub fn parse<C>(specs: &[Spec<C>], argv: &[String]) -> Result<Parsed<C>, ParseError> {
    if argv.iter().any(|arg| arg == "--help" || arg == "-h") {
        return Ok(Parsed::Help);
    }
    let mut spec = specs.iter().find(|s| s.words.is_empty());
    let mut words = Vec::new();
    let mut jobs = None;
    let mut pending: Option<&Flag> = None;
    let mut operands = Vec::new();
    let mut given = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == JOBS.name {
            let value = it.next().ok_or_else(|| missing(&JOBS))?;
            jobs = Some(positive(JOBS.name, value)?);
        } else if let Some(flag) = pending.take() {
            given.push((flag.name, arg.clone()));
        } else if let Some(selected) = spec {
            match selected.flags.iter().find(|f| f.name == arg) {
                Some(flag) if flag.value.is_some() => pending = Some(flag),
                Some(flag) => given.push((flag.name, String::new())),
                None if arg.starts_with('-') || operands.len() == selected.max_operands => {
                    return Err(ParseError(format!("unknown argument '{arg}'")));
                }
                None => operands.push(arg.clone()),
            }
        } else {
            words.push(arg.as_str());
            let typed = words.join(" ");
            spec = specs.iter().find(|s| s.words == typed);
            if spec.is_none() && actions(specs, &typed).is_empty() {
                let (last, group) = words.split_last().unwrap_or((&"", &[]));
                return Err(ParseError(match group.join(" ") {
                    g if g.is_empty() => format!("unknown command '{last}'"),
                    g => format!("unknown {g} action '{last}' (use {})", actions(specs, &g)),
                }));
            }
        }
    }
    if let Some(flag) = pending {
        return Err(missing(flag));
    }
    let Some(spec) = spec else {
        let typed = words.join(" ");
        return match actions(specs, &typed) {
            _ if words.is_empty() => Ok(Parsed::Help),
            list => Err(ParseError(format!("{typed} expects an action ({list})"))),
        };
    };
    let args = Args {
        table: spec.flags,
        operands,
        given,
    };
    Ok(Parsed::Run((spec.build)(&args)?, jobs))
}

/// The words that may follow `typed` to name a command, `|`-separated.
fn actions<C>(specs: &[Spec<C>], typed: &str) -> String {
    let next = specs
        .iter()
        .filter_map(|s| s.words.strip_prefix(typed)?.strip_prefix(' '));
    next.collect::<Vec<_>>().join("|")
}

fn missing(flag: &Flag) -> ParseError {
    ParseError(format!("{} expects {}", flag.name, flag.expects))
}

fn integer<T: FromStr>(flag: &str, value: &str) -> Result<T, ParseError> {
    let err = || ParseError(format!("{flag} expects an integer, got '{value}'"));
    value.parse().map_err(|_| err())
}

fn positive(flag: &str, value: &str) -> Result<usize, ParseError> {
    match integer(flag, value)? {
        0 => Err(ParseError(format!("{flag} expects a positive integer"))),
        n => Ok(n),
    }
}

/// The getters convert every value a repeated flag was given (the
/// first bad one is the error) and return the last.
impl Args {
    fn values(&self, flag: &str) -> impl Iterator<Item = &str> + '_ {
        let name = self.table.iter().find(|f| f.name == flag).map(|f| f.name);
        debug_assert!(name.is_some(), "{flag} is not in the command's table");
        let given = self.given.iter().filter(move |(g, _)| Some(*g) == name);
        given.map(|(_, value)| value.as_str())
    }

    /// Whether `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.values(flag).next().is_some()
    }

    /// The value `flag` was given.
    #[must_use]
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.values(flag).last()
    }

    /// The value `flag` was given, through `convert`.
    pub fn get<T>(
        &self,
        flag: &str,
        convert: impl Fn(&str) -> Result<T, ParseError>,
    ) -> Result<Option<T>, ParseError> {
        self.values(flag).map(convert).last().transpose()
    }

    /// [`Args::get`] for a required flag: `<flag> is required` when absent.
    pub fn require<T>(
        &self,
        flag: &str,
        convert: impl Fn(&str) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let value = self.get(flag, convert)?;
        value.ok_or_else(|| ParseError(format!("{flag} is required")))
    }

    /// `flag`'s number, or `<flag> expects a number, got '<value>'`.
    pub fn number(&self, flag: &str) -> Result<Option<f64>, ParseError> {
        self.get(flag, |value| {
            let err = || ParseError(format!("{flag} expects a number, got '{value}'"));
            value.parse().map_err(|_| err())
        })
    }

    /// `flag`'s integer, or `<flag> expects an integer, got '<value>'`.
    pub fn integer<T: FromStr>(&self, flag: &str) -> Result<Option<T>, ParseError> {
        self.get(flag, |value| integer(flag, value))
    }

    /// [`Args::integer`], refusing 0: `<flag> expects a positive integer`.
    pub fn positive(&self, flag: &str) -> Result<Option<usize>, ParseError> {
        self.get(flag, |value| positive(flag, value))
    }
}

/// `lead` and then `words`, wrapped at 76 columns; continuation lines
/// are indented to line up after `lead`.
#[must_use]
pub fn wrap<S: AsRef<str>>(lead: &str, words: impl IntoIterator<Item = S>) -> String {
    let indent = lead.chars().count();
    let (mut text, mut column) = (lead.to_string(), indent);
    for word in words {
        let (word, width) = (word.as_ref(), word.as_ref().chars().count());
        if column > indent && column + 1 + width > 76 {
            text = format!("{text}\n{:indent$}", "");
            column = indent;
        }
        if column > indent {
            text.push(' ');
            column += 1;
        }
        text.push_str(word);
        column += width;
    }
    text.trim_end().to_string()
}

/// `--name VALUE`, or `--name` for a switch.
fn usage_word(flag: &Flag) -> String {
    flag.value.map_or_else(
        || flag.name.to_string(),
        |value| format!("{} {value}", flag.name),
    )
}

/// A table's synopsis: `--name VALUE` for a required flag,
/// `[--name VALUE]` for the others.
pub fn flag_words(flags: &[Flag]) -> impl Iterator<Item = String> + '_ {
    flags.iter().map(|flag| match flag.required {
        true => usage_word(flag),
        false => format!("[{}]", usage_word(flag)),
    })
}

/// A table's flag reference: each `--name VALUE` with its help beside.
#[must_use]
pub fn reference(flags: &[Flag]) -> String {
    let entries = flags.iter().map(|flag| {
        let lead = format!("  {:<17}  ", usage_word(flag));
        wrap(&lead, flag.help.split_whitespace())
    });
    entries.collect::<Vec<_>>().join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    const FLAGS: &[Flag] = &[
        Flag::value("--out", "DIR", "a directory").help("where to write"),
        Flag::value("--node", "NM", "a value").required(),
        Flag::switch("--dry").help("only plan"),
    ];

    /// What a test command line read: operands, `--out`, `--dry`.
    type Read = (Vec<String>, Option<String>, bool);

    fn read(args: &Args) -> Result<Read, ParseError> {
        Ok((
            args.operands.clone(),
            args.text("--out").map(str::to_string),
            args.has("--dry"),
        ))
    }

    fn bare(args: &Args) -> Result<Read, ParseError> {
        Ok((args.operands.clone(), None, false))
    }

    const SPECS: &[Spec<Read>] = &[
        Spec {
            words: "run",
            operands: "[PATH]",
            max_operands: 1,
            flags: FLAGS,
            build: read,
        },
        Spec {
            words: "cache stats",
            operands: "",
            max_operands: 0,
            flags: &[],
            build: bare,
        },
        Spec {
            words: "cache clear",
            operands: "",
            max_operands: 0,
            flags: &[],
            build: bare,
        },
    ];

    fn run(line: &str) -> Result<Parsed<Read>, ParseError> {
        parse(SPECS, &argv(line))
    }

    fn error(line: &str) -> String {
        run(line).expect_err(line).0
    }

    #[test]
    fn flags_and_operands_mix_in_any_order() {
        let expected = Parsed::Run((argv("a"), Some("o".into()), true), None);
        for line in [
            "run a --out o --dry",
            "run --dry --out o a",
            "run --out o a --dry",
        ] {
            assert_eq!(run(line).unwrap(), expected, "{line}");
        }
        // The last repeat wins; a value may look like a flag.
        assert_eq!(
            run("run --out x --out --dry").unwrap(),
            Parsed::Run((vec![], Some("--dry".into()), false), None)
        );
    }

    #[test]
    fn jobs_and_help_are_accepted_anywhere() {
        assert_eq!(
            run("--jobs 3 run --out --jobs 2 o").unwrap(),
            Parsed::Run((vec![], Some("o".into()), false), Some(2))
        );
        assert_eq!(
            run("cache --jobs 4 stats").unwrap(),
            Parsed::Run(Default::default(), Some(4))
        );
        for line in [
            "",
            "--jobs 2",
            "--help",
            "run --frob -h",
            "cache --help",
            "nope --help",
        ] {
            assert_eq!(run(line).unwrap(), Parsed::Help, "{line}");
        }
        assert_eq!(error("run --jobs"), "--jobs expects a value");
        assert_eq!(error("run --jobs x"), "--jobs expects an integer, got 'x'");
        assert_eq!(error("run --jobs 0"), "--jobs expects a positive integer");
    }

    #[test]
    fn unknown_words_flags_and_missing_values_are_named() {
        assert_eq!(error("frob"), "unknown command 'frob'");
        assert_eq!(error("cache"), "cache expects an action (stats|clear)");
        assert_eq!(
            error("cache frob"),
            "unknown cache action 'frob' (use stats|clear)"
        );
        assert_eq!(error("cache stats --dry"), "unknown argument '--dry'");
        assert_eq!(error("run a b"), "unknown argument 'b'");
        assert_eq!(error("run --out"), "--out expects a directory");
    }

    #[test]
    fn typed_getters_check_every_value() {
        let args = Args {
            table: FLAGS,
            operands: Vec::new(),
            given: vec![
                ("--node", "16".into()),
                ("--out", "2.5".into()),
                ("--node", "0".into()),
                ("--out", "x".into()),
            ],
        };
        assert_eq!(args.integer::<u32>("--node").unwrap(), Some(0));
        assert_eq!(
            args.positive("--node").unwrap_err().0,
            "--node expects a positive integer"
        );
        assert_eq!(
            args.number("--out").unwrap_err().0,
            "--out expects a number, got 'x'"
        );
        assert_eq!(args.text("--out"), Some("x"));
        let none = Args {
            table: FLAGS,
            operands: Vec::new(),
            given: Vec::new(),
        };
        assert_eq!(none.number("--out").unwrap(), None);
        assert_eq!(
            none.require("--node", |s| Ok(s.to_string())).unwrap_err().0,
            "--node is required"
        );
    }

    #[test]
    fn help_renders_every_flag_of_the_table() {
        assert_eq!(
            wrap("  x run ", flag_words(FLAGS)),
            "  x run [--out DIR] --node NM [--dry]"
        );
        assert_eq!(
            reference(FLAGS),
            "  --out DIR          where to write\n  --node NM\n  --dry              only plan"
        );
        let long = wrap("lead ", std::iter::repeat_n("word", 30));
        assert!(long.lines().all(|line| line.len() <= 76), "{long}");
        assert!(
            long.lines().skip(1).all(|line| line.starts_with("     w")),
            "{long}"
        );
    }
}
