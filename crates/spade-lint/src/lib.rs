//! Workspace invariant linter for the Spade repository.
//!
//! `spade-lint` is a dependency-free, token-level source analyzer that
//! enforces the project's concurrency and hot-path invariants — the
//! mechanisms the end-to-end exactness gates *rely on* but cannot see:
//!
//! * **`relaxed`** — every `Ordering::Relaxed` must sit under an
//!   adjacent `// audit:` comment justifying why relaxed suffices, and
//!   the justification must be registered in the committed allowlist.
//! * **`unsafe`** — every `unsafe` block/fn must sit under an adjacent
//!   `// SAFETY:` comment registered in the allowlist.
//! * **`hot-panic`** — no `unwrap()` / `expect(` / `panic!` /
//!   `unreachable!` in hot-path modules (the service worker loop, the
//!   reactor, wire decode) outside `#[cfg(test)]` code, except sites
//!   explicitly registered in the allowlist.
//! * **`instant-loop`** — no `Instant::now()` lexically inside a loop
//!   in a hot-path module (per-edge clock reads are the classic silent
//!   throughput killer), except registered sites.
//! * **`wire-arith`** — length arithmetic in the wire codec must use
//!   checked/saturating ops; every raw `+`/`*` on a length is either a
//!   finding or a registered, justified exception.
//! * **`dangling-ref`** — CI config and the docs ([`REF_DOCS`]) may only
//!   name cargo targets (`--bin X`, `--bench X`, `--test X`,
//!   `--example X`), gate files (`ci/<file>`) and bench baselines
//!   (`BENCH_*.json`) that exist in the tree, so deleting a harness
//!   without its callers fails here. Never allowlistable.
//!
//! The analyzer is intentionally lexical, not syntactic: it strips
//! strings and comments with a small state machine, tracks brace and
//! loop depth, and skips `#[cfg(test)]` modules. That is enough to make
//! the source rules precise on rustfmt-formatted code while keeping the
//! whole tool a single fast pass with zero dependencies.
//!
//! An *annotation* rule (relaxed/unsafe) covers the whole "paragraph"
//! that follows it: a `// audit:`/`// SAFETY:` comment blesses every
//! matching site until the next blank line, so a block of telemetry
//! bumps needs one justification, not six.

use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Rule identifiers, also the first column of allowlist entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `Ordering::Relaxed` without a registered `// audit:` annotation.
    Relaxed,
    /// `unsafe` without a registered `// SAFETY:` annotation.
    Unsafe,
    /// Panic machinery in a hot-path module.
    HotPanic,
    /// `Instant::now()` inside a loop in a hot-path module.
    InstantLoop,
    /// Unchecked length arithmetic in the wire codec.
    WireArith,
    /// A doc or CI reference to a target or file the tree does not have.
    DanglingRef,
}

impl Rule {
    /// Stable lower-case name (used in reports and the allowlist).
    pub fn name(&self) -> &'static str {
        match self {
            Rule::Relaxed => "relaxed",
            Rule::Unsafe => "unsafe",
            Rule::HotPanic => "hot-panic",
            Rule::InstantLoop => "instant-loop",
            Rule::WireArith => "wire-arith",
            Rule::DanglingRef => "dangling-ref",
        }
    }

    /// Parses an allowlist rule column.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "relaxed" => Some(Rule::Relaxed),
            "unsafe" => Some(Rule::Unsafe),
            "hot-panic" => Some(Rule::HotPanic),
            "instant-loop" => Some(Rule::InstantLoop),
            "wire-arith" => Some(Rule::WireArith),
            "dangling-ref" => Some(Rule::DanglingRef),
            _ => None,
        }
    }
}

/// One rule violation (before allowlist filtering).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Allowlist key: the annotation text for annotation rules, the
    /// normalized code snippet otherwise.
    pub key: String,
    /// Human explanation.
    pub message: String,
    /// Whether an allowlist entry can bless this finding. Missing
    /// annotations cannot be allowlisted — the fix is writing the
    /// annotation, not registering its absence.
    pub allowable: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule.name(), self.message)
    }
}

// ---------------------------------------------------------------------
// Lexical pass: strip strings and comments, keep comment text aside.
// ---------------------------------------------------------------------

/// One source line after the lexical pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StrippedLine {
    /// Code with string/char-literal contents blanked and comments
    /// removed. Quotes are kept so patterns like `.expect(` survive.
    pub code: String,
    /// Concatenated `//`-comment text on the line (block comments are
    /// ignored for annotations — the project annotates with line
    /// comments).
    pub comment: String,
}

impl StrippedLine {
    /// True when the line carries neither code nor comment.
    pub fn is_blank(&self) -> bool {
        self.code.trim().is_empty() && self.comment.trim().is_empty()
    }
}

/// Strips `source` into per-line code/comment pairs.
///
/// Handles line comments, (nested) block comments, string literals,
/// raw strings with up to many `#`s, and char literals vs lifetimes.
pub fn strip_source(source: &str) -> Vec<StrippedLine> {
    let mut out = Vec::new();
    let mut block_comment_depth = 0usize;
    // Raw-string state survives newlines: Some(hashes) while inside.
    let mut raw_string: Option<usize> = None;
    let mut in_string = false;

    for raw_line in source.lines() {
        let bytes = raw_line.as_bytes();
        let mut code = String::with_capacity(raw_line.len());
        let mut comment = String::new();
        let mut i = 0usize;
        while i < bytes.len() {
            if block_comment_depth > 0 {
                if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    block_comment_depth -= 1;
                    i += 2;
                } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    block_comment_depth += 1;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            if let Some(hashes) = raw_string {
                // Look for `"` followed by `hashes` `#`s.
                if bytes[i] == b'"'
                    && bytes[i + 1..].iter().take_while(|&&b| b == b'#').count() >= hashes
                {
                    raw_string = None;
                    code.push('"');
                    for _ in 0..hashes {
                        code.push('#');
                    }
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
                continue;
            }
            if in_string {
                match bytes[i] {
                    b'\\' => i += 2, // skip the escaped byte
                    b'"' => {
                        in_string = false;
                        code.push('"');
                        i += 1;
                    }
                    _ => i += 1,
                }
                continue;
            }
            match bytes[i] {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    // Line comment: keep its text for annotations.
                    let text = &raw_line[i + 2..];
                    let text = text.trim_start_matches(['/', '!']);
                    if !comment.is_empty() {
                        comment.push(' ');
                    }
                    comment.push_str(text.trim());
                    i = bytes.len();
                }
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    block_comment_depth += 1;
                    i += 2;
                }
                b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#'))
                    && !prev_is_ident(&code) =>
                {
                    let hashes = bytes[i + 1..].iter().take_while(|&&b| b == b'#').count();
                    if bytes.get(i + 1 + hashes) == Some(&b'"') {
                        raw_string = Some(hashes);
                        code.push('r');
                        for _ in 0..hashes {
                            code.push('#');
                        }
                        code.push('"');
                        i += 2 + hashes;
                    } else {
                        code.push('r');
                        i += 1;
                    }
                }
                b'"' => {
                    in_string = true;
                    code.push('"');
                    i += 1;
                }
                b'\'' => {
                    // Char literal vs lifetime: a literal closes within
                    // a few bytes (`'a'`, `'\n'`, `'\u{1F600}'`).
                    if let Some(close) = char_literal_len(&bytes[i..]) {
                        code.push_str("''");
                        i += close;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                b => {
                    code.push(b as char);
                    i += 1;
                }
            }
        }
        out.push(StrippedLine { code, comment });
    }
    out
}

/// Whether the last code char continues an identifier (so `r` in
/// `for r"` is a raw-string sigil but in `var"` it is part of a name).
fn prev_is_ident(code: &str) -> bool {
    code.chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// If `bytes` (starting at `'`) opens a char literal, returns its total
/// byte length; `None` for a lifetime.
fn char_literal_len(bytes: &[u8]) -> Option<usize> {
    debug_assert_eq!(bytes[0], b'\'');
    if bytes.get(1) == Some(&b'\\') {
        // Escaped: find the closing quote (bounded — `'\u{10FFFF}'`).
        for (j, &b) in bytes.iter().enumerate().skip(2).take(12) {
            if b == b'\'' {
                return Some(j + 1);
            }
        }
        return None;
    }
    // Unescaped: `'X'` where X is one char (possibly multi-byte UTF-8).
    let s = std::str::from_utf8(&bytes[1..]).ok()?;
    let c = s.chars().next()?;
    if s[c.len_utf8()..].starts_with('\'') {
        Some(1 + c.len_utf8() + 1)
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// Rules engine.
// ---------------------------------------------------------------------

/// Path suffixes of the hot-path modules (service worker loop, reactor
/// and the two frame handlers it dispatches into, wire decode) where
/// `hot-panic` and `instant-loop` apply.
pub const HOT_PATH_SUFFIXES: &[&str] = &[
    "spade-core/src/service.rs",
    "spade-net/src/reactor.rs",
    "spade-net/src/server.rs",
    "spade-net/src/shard_server.rs",
    "spade-net/src/wire.rs",
];

/// Path suffixes of the wire codec where `wire-arith` applies.
pub const WIRE_SUFFIXES: &[&str] = &["spade-net/src/wire.rs"];

fn has_suffix(path: &str, suffixes: &[&str]) -> bool {
    suffixes.iter().any(|s| path.ends_with(s))
}

/// Collapses interior whitespace so allowlist keys survive reformatting.
pub fn normalize_snippet(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// A pending annotation and the paragraph it covers.
#[derive(Clone, Debug, Default)]
struct Annotations {
    audit: Option<String>,
    safety: Option<String>,
}

/// Runs every applicable rule over one file. `path` must be
/// workspace-relative with forward slashes.
pub fn scan_file(path: &str, source: &str) -> Vec<Finding> {
    let lines = strip_source(source);
    let hot = has_suffix(path, HOT_PATH_SUFFIXES);
    let wire = has_suffix(path, WIRE_SUFFIXES);

    let mut findings = Vec::new();
    let mut depth = 0usize; // brace depth
    let mut loop_stack: Vec<usize> = Vec::new(); // depth of each open loop body
    let mut pending_loop = false;
    // `#[cfg(test)]` handling: once the attribute is seen, the next
    // `mod`/`fn` item starts a skipped region until its braces close.
    let mut pending_cfg_test = false;
    let mut skip_below: Option<usize> = None;
    let mut ann = Annotations::default();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.trim();

        if line.is_blank() {
            ann = Annotations::default();
        }
        // Collect annotations before rule checks so a same-line comment
        // covers its own line.
        if let Some(text) = annotation_text(&line.comment, "audit:") {
            ann.audit = Some(text);
        }
        if let Some(text) = annotation_text(&line.comment, "SAFETY:") {
            ann.safety = Some(text);
        }

        let in_test = skip_below.is_some();
        if !in_test {
            if code.contains("#[cfg(test)]") {
                pending_cfg_test = true;
            } else if pending_cfg_test
                && (starts_item(code, "mod") || starts_item(code, "fn") || code.contains(" fn "))
            {
                // The test item begins here; skip until depth returns.
                skip_below = Some(depth);
                pending_cfg_test = false;
            } else if pending_cfg_test && !code.is_empty() && !code.starts_with("#[") {
                pending_cfg_test = false;
            }
        }
        let in_test = skip_below.is_some();

        if !in_test {
            check_line(
                path,
                lineno,
                code,
                &line.comment,
                hot,
                wire,
                &loop_stack,
                &ann,
                &mut findings,
            );
        }

        // Brace/loop bookkeeping on the stripped code.
        // (`impl Trait for Type` names a type, it opens no loop.)
        for word in words(code) {
            if matches!(word, "for" | "while" | "loop") && !code.starts_with("impl") {
                pending_loop = true;
            }
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if pending_loop {
                        loop_stack.push(depth);
                        pending_loop = false;
                    }
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    while loop_stack.last().is_some_and(|&d| d > depth) {
                        loop_stack.pop();
                    }
                    if let Some(at) = skip_below {
                        if depth <= at {
                            skip_below = None;
                        }
                    }
                }
                ';' => pending_loop = false,
                _ => {}
            }
        }
    }
    findings
}

/// Extracts the text after `marker` in a comment, if present.
fn annotation_text(comment: &str, marker: &str) -> Option<String> {
    let at = comment.find(marker)?;
    Some(comment[at + marker.len()..].trim().to_string())
}

fn starts_item(code: &str, kw: &str) -> bool {
    code.strip_prefix(kw).is_some_and(|rest| rest.starts_with([' ', '\t']))
        || code.strip_prefix("pub ").is_some_and(|rest| starts_item(rest, kw))
        || code.strip_prefix("pub(crate) ").is_some_and(|rest| starts_item(rest, kw))
}

fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !c.is_alphanumeric() && c != '_').filter(|w| !w.is_empty())
}

#[allow(clippy::too_many_arguments)]
fn check_line(
    path: &str,
    lineno: usize,
    code: &str,
    comment: &str,
    hot: bool,
    wire: bool,
    loop_stack: &[usize],
    ann: &Annotations,
    findings: &mut Vec<Finding>,
) {
    if code.contains("Ordering::Relaxed") {
        match &ann.audit {
            None => findings.push(Finding {
                rule: Rule::Relaxed,
                path: path.to_string(),
                line: lineno,
                key: normalize_snippet(code),
                message: "Ordering::Relaxed without an adjacent `// audit:` justification"
                    .to_string(),
                allowable: false,
            }),
            Some(key) => findings.push(Finding {
                rule: Rule::Relaxed,
                path: path.to_string(),
                line: lineno,
                key: key.clone(),
                message: format!("unregistered audit annotation: {key:?}"),
                allowable: true,
            }),
        }
    }

    if words(code).any(|w| w == "unsafe") {
        match &ann.safety {
            None => findings.push(Finding {
                rule: Rule::Unsafe,
                path: path.to_string(),
                line: lineno,
                key: normalize_snippet(code),
                message: "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
                allowable: false,
            }),
            Some(key) => findings.push(Finding {
                rule: Rule::Unsafe,
                path: path.to_string(),
                line: lineno,
                key: key.clone(),
                message: format!("unregistered SAFETY annotation: {key:?}"),
                allowable: true,
            }),
        }
    }

    if hot {
        let panicky = code.contains(".unwrap()")
            || code.contains(".expect(")
            || code.contains("panic!(")
            || code.contains("unreachable!(");
        if panicky {
            findings.push(Finding {
                rule: Rule::HotPanic,
                path: path.to_string(),
                line: lineno,
                key: normalize_snippet(code),
                message: "panic machinery in a hot-path module".to_string(),
                allowable: true,
            });
        }
        if code.contains("Instant::now") && !loop_stack.is_empty() {
            findings.push(Finding {
                rule: Rule::InstantLoop,
                path: path.to_string(),
                line: lineno,
                key: normalize_snippet(code),
                message: "Instant::now() inside a loop in a hot-path module".to_string(),
                allowable: true,
            });
        }
    }

    if wire {
        let lengthy =
            code.contains("len()") || code.contains("remaining()") || code.contains("buffered()");
        let raw_arith = code.contains(" + ") || code.contains(" * ");
        let checked = code.contains("checked_") || code.contains("saturating_");
        if lengthy && raw_arith && !checked {
            findings.push(Finding {
                rule: Rule::WireArith,
                path: path.to_string(),
                line: lineno,
                key: normalize_snippet(code),
                message: "unchecked length arithmetic in the wire codec".to_string(),
                allowable: true,
            });
        }
    }
    let _ = comment;
}

// ---------------------------------------------------------------------
// Dangling references from docs and CI config.
// ---------------------------------------------------------------------

/// The files `dangling-ref` reads, workspace-relative. A missing one is
/// skipped (a checkout without the verify skill is still lintable).
pub const REF_DOCS: &[&str] =
    &[".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"];

/// Cargo target kinds: the name shared by the `--<kind>` flag and the
/// manifest's `[[<kind>]]` section, and the package-relative directory
/// whose `*.rs` files cargo auto-discovers as targets of that kind.
const TARGET_KINDS: [(&str, &str); 4] =
    [("bin", "src/bin"), ("bench", "benches"), ("test", "tests"), ("example", "examples")];

/// What the tree offers for a doc to name: cargo targets by kind, and
/// the committed files that `ci/…` and `BENCH_*.json` tokens resolve to.
#[derive(Clone, Debug, Default)]
pub struct Tree {
    targets: BTreeSet<(&'static str, String)>,
    files: BTreeSet<String>,
}

impl Tree {
    /// A tree given literally — `targets` as `(kind, name)`, `files` as
    /// workspace-relative paths. The self-test judges its fixture
    /// against one of these, so it never depends on the checkout.
    pub fn of(targets: &[(&'static str, &str)], files: &[&str]) -> Tree {
        Tree {
            targets: targets.iter().map(|&(kind, name)| (kind, name.to_string())).collect(),
            files: files.iter().map(|f| f.to_string()).collect(),
        }
    }

    /// Indexes the checkout at `root`: every package (the facade, each
    /// crate and vendored shim, the standalone `benchmark/`) contributes
    /// its auto-discovered and manifest-declared targets; `ci/` and the
    /// root-level `BENCH_*` baselines contribute files.
    pub fn from_root(root: &Path) -> io::Result<Tree> {
        let mut tree = Tree::default();
        let mut packages = vec![root.to_path_buf(), root.join("benchmark")];
        for group in ["crates", "crates/vendor"] {
            packages.extend(list_dir(&root.join(group))?);
        }
        for package in packages {
            if let Ok(manifest) = std::fs::read_to_string(package.join("Cargo.toml")) {
                tree.add_package(&package, &manifest)?;
            }
        }
        let mut files = walk_files(&root.join("ci"))?;
        files.extend(list_dir(root)?.into_iter().filter(|p| p.is_file()));
        tree.files = files.iter().map(|p| rel_path(root, p)).collect();
        tree.files.retain(|f| f.starts_with("ci/") || f.starts_with("BENCH_"));
        Ok(tree)
    }

    fn add_package(&mut self, dir: &Path, manifest: &str) -> io::Result<()> {
        let mut section = "";
        let mut package_name = None;
        let mut declares_bin = false;
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line.trim_matches(['[', ']']);
                declares_bin |= line == "[[bin]]";
            } else if let Some(name) = manifest_name(line) {
                if section == "package" {
                    package_name = Some(name.to_string());
                } else if let Some(&(kind, _)) = TARGET_KINDS.iter().find(|(k, _)| *k == section) {
                    self.targets.insert((kind, name.to_string()));
                }
            }
        }
        // `src/main.rs` is a bin named after the package unless the
        // manifest names its bins itself.
        if let (Some(name), false) = (package_name, declares_bin) {
            if dir.join("src/main.rs").is_file() {
                self.targets.insert(("bin", name));
            }
        }
        for (kind, sub) in TARGET_KINDS {
            for path in list_dir(&dir.join(sub))? {
                let is_target =
                    path.extension().is_some_and(|e| e == "rs") || path.join("main.rs").is_file();
                if let (true, Some(stem)) = (is_target, path.file_stem()) {
                    self.targets.insert((kind, stem.to_string_lossy().into_owned()));
                }
            }
        }
        Ok(())
    }

    fn has_target(&self, kind: &'static str, name: &str) -> bool {
        self.targets.contains(&(kind, name.to_string()))
    }

    /// `path` is a committed file, or a directory holding one.
    fn has_path(&self, path: &str) -> bool {
        let as_dir = format!("{path}/");
        self.files.contains(path) || self.files.iter().any(|f| f.starts_with(&as_dir))
    }
}

/// The value of a manifest `name = "…"` line.
fn manifest_name(line: &str) -> Option<&str> {
    let value = line.strip_prefix("name")?.trim_start().strip_prefix('=')?.trim();
    value.strip_prefix('"')?.strip_suffix('"')
}

/// Entries of `dir`, sorted; a missing directory has none.
fn list_dir(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut paths = entries.map(|e| e.map(|e| e.path())).collect::<io::Result<Vec<_>>>()?;
    paths.sort();
    Ok(paths)
}

/// Every file below `dir`, recursively; a missing directory has none.
fn walk_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for path in list_dir(&dir)? {
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    Ok(files)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_path_byte(b: u8) -> bool {
    is_ident_byte(b) || matches!(b, b'.' | b'/' | b'-')
}

/// The run of bytes accepted by `keep` starting at `from`, unless what
/// follows marks it as a pattern rather than a name (`ci/*.py`,
/// `--bin <name>`, `BENCH_{a,b}.json`).
fn name_at(text: &str, from: usize, keep: fn(u8) -> bool) -> Option<&str> {
    let bytes = text.as_bytes();
    let len = bytes[from..].iter().take_while(|&&b| keep(b)).count();
    let is_pattern = matches!(bytes.get(from + len), Some(b'*' | b'<' | b'{'));
    (len > 0 && !is_pattern).then(|| &text[from..from + len])
}

/// Checks one doc's references against `tree`. `path` is the doc's
/// workspace-relative path. Recognized tokens:
///
/// * `--bin X` / `--bench X` / `--test X` / `--example X` — `X` must be
///   a target of that kind in some package;
/// * `ci/<path>` — must be a committed file or directory;
/// * `BENCH_<name>.json` — must be a committed root-level baseline; a
///   `BENCH_<name>.fresh.json` is a run's output and needs the
///   `BENCH_<name>.json` baseline it is gated against.
///
/// Placeholders and globs (`--bin <name>`, `ci/*.py`) are not names and
/// are skipped.
pub fn scan_doc(path: &str, text: &str, tree: &Tree) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut dangling = |line: usize, key: String, what: &str| {
        findings.push(Finding {
            rule: Rule::DanglingRef,
            path: path.to_string(),
            line,
            message: format!("`{key}` names {what} that is not in the tree"),
            key,
            allowable: false,
        });
    };
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let bytes = line.as_bytes();
        for (kind, _) in TARGET_KINDS {
            // The trailing space keeps `--test-threads` and `--bins` out.
            let flag = format!("--{kind} ");
            for (at, _) in line.match_indices(&flag) {
                let keep = |b| is_ident_byte(b) || b == b'-';
                if let Some(name) = name_at(line, at + flag.len(), keep) {
                    if !tree.has_target(kind, name) {
                        dangling(lineno, format!("--{kind} {name}"), &format!("a {kind} target"));
                    }
                }
            }
        }
        for (at, _) in line.match_indices("ci/") {
            if at > 0 && is_path_byte(bytes[at - 1]) {
                continue; // the tail of a longer path
            }
            if let Some(name) = name_at(line, at, is_path_byte) {
                let name = name.trim_end_matches(['.', '/']);
                if !tree.has_path(name) {
                    dangling(lineno, name.to_string(), "a file");
                }
            }
        }
        for (at, _) in line.match_indices("BENCH_") {
            if at > 0 && is_ident_byte(bytes[at - 1]) {
                continue; // `SPADE_BENCH_…`
            }
            let keep = |b| is_ident_byte(b) || b == b'.';
            let Some(name) = name_at(line, at, keep) else { continue };
            let name = name.trim_end_matches('.');
            let Some(stem) = name.strip_suffix(".json") else { continue };
            let baseline = format!("{}.json", stem.strip_suffix(".fresh").unwrap_or(stem));
            if !tree.files.contains(&baseline) {
                dangling(lineno, name.to_string(), "a bench baseline");
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Allowlist.
// ---------------------------------------------------------------------

/// The committed allowlist: tab-separated `rule<TAB>path<TAB>key` lines,
/// `#` comments and blanks ignored. Keys for annotation rules are the
/// annotation text; for the other rules, the normalized code snippet.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<(Rule, String, String)>,
}

impl Allowlist {
    /// Parses allowlist text; errors carry the offending line number.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut cols = raw.splitn(3, '\t');
            let (rule, path, key) = match (cols.next(), cols.next(), cols.next()) {
                (Some(r), Some(p), Some(k)) => (r.trim(), p.trim(), k.trim()),
                _ => {
                    return Err(format!(
                        "allowlist line {}: expected rule<TAB>path<TAB>key, got {raw:?}",
                        idx + 1
                    ))
                }
            };
            let rule = Rule::from_name(rule)
                .ok_or_else(|| format!("allowlist line {}: unknown rule {rule:?}", idx + 1))?;
            if key.is_empty() {
                return Err(format!("allowlist line {}: empty key", idx + 1));
            }
            entries.push((rule, path.to_string(), key.to_string()));
        }
        Ok(Allowlist { entries })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the allowlist has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `finding` is blessed by a registered entry.
    pub fn permits(&self, finding: &Finding) -> bool {
        finding.allowable
            && self
                .entries
                .iter()
                .any(|(r, p, k)| *r == finding.rule && *p == finding.path && *k == finding.key)
    }

    /// Entries that blessed nothing in `findings` — stale registrations
    /// that must be pruned so the allowlist stays an honest inventory.
    pub fn stale_entries(&self, findings: &[Finding]) -> Vec<(Rule, String, String)> {
        self.entries
            .iter()
            .filter(|(r, p, k)| {
                !findings.iter().any(|f| f.rule == *r && f.path == *p && f.key == *k && f.allowable)
            })
            .cloned()
            .collect()
    }
}

// ---------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------

/// Collects the `.rs` files `--workspace` scans: `src/` trees of the
/// facade crate and every crate under `crates/`, excluding the offline
/// vendor shims (stand-in code with its own idioms, replaced wholesale
/// on a networked builder) and this linter's intentionally-bad fixtures.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = walk_files(&root.join("src"))?;
    files.extend(walk_files(&root.join("crates"))?);
    files.retain(|path| {
        let rel = rel_path(root, path);
        path.extension().is_some_and(|e| e == "rs")
            && (rel.starts_with("src/") || rel.contains("/src/"))
            && !rel.starts_with("crates/vendor")
            && !rel.contains("spade-lint/fixtures")
    });
    files.sort();
    Ok(files)
}

/// Scans every workspace file and every [`REF_DOCS`] doc, returning all
/// findings (allowlist not yet applied) keyed by workspace-relative path.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for file in workspace_files(root)? {
        let source = std::fs::read_to_string(&file)?;
        findings.extend(scan_file(&rel_path(root, &file), &source));
    }
    let tree = Tree::from_root(root)?;
    for doc in REF_DOCS {
        if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
            findings.extend(scan_doc(doc, &text, &tree));
        }
    }
    Ok(findings)
}

/// Result of judging a finding set against an allowlist.
pub struct Evaluation {
    /// Findings the allowlist does not permit.
    pub violations: Vec<Finding>,
    /// Allowlist entries matching no finding, as `(rule, path, key)`.
    pub stale: Vec<(Rule, String, String)>,
    /// Total findings per rule (audited sites, violations included).
    pub audited: Vec<(Rule, usize)>,
}

/// Splits findings into violations and a per-rule audit summary, given
/// the allowlist.
pub fn evaluate(findings: &[Finding], allowlist: &Allowlist) -> Evaluation {
    let violations: Vec<Finding> =
        findings.iter().filter(|f| !allowlist.permits(f)).cloned().collect();
    let stale = allowlist.stale_entries(findings);
    let mut audited: Vec<(Rule, usize)> = Vec::new();
    for rule in [Rule::Relaxed, Rule::Unsafe, Rule::HotPanic, Rule::InstantLoop, Rule::WireArith] {
        let n = findings.iter().filter(|f| f.rule == rule).count();
        audited.push((rule, n));
    }
    Evaluation { violations, stale, audited }
}

/// Distinct files among `findings` — used for reporting.
pub fn files_covered(findings: &[Finding]) -> BTreeSet<String> {
    findings.iter().map(|f| f.path.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_blanks_strings_and_keeps_comments() {
        let src = "let x = \"Ordering::Relaxed\"; // audit: just a string\n";
        let lines = strip_source(src);
        assert!(!lines[0].code.contains("Ordering::Relaxed"));
        assert_eq!(annotation_text(&lines[0].comment, "audit:").as_deref(), Some("just a string"));
    }

    #[test]
    fn stripper_handles_block_comments_and_char_literals() {
        let src = "let a = 'x'; /* Ordering::Relaxed\nstill comment */ let b: &'static str = \"\";";
        let lines = strip_source(src);
        assert!(!lines[0].code.contains("Relaxed"));
        assert!(lines[1].code.contains("'static"));
    }

    #[test]
    fn stripper_handles_raw_strings() {
        let src = "let re = r#\"unsafe { \"quoted\" }\"#; let after = 1;";
        let lines = strip_source(src);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].code.contains("let after = 1;"));
    }

    #[test]
    fn relaxed_without_annotation_is_unallowable() {
        let src = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";
        let findings = scan_file("crates/x/src/lib.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::Relaxed);
        assert!(!findings[0].allowable);
    }

    #[test]
    fn audit_annotation_covers_its_paragraph_until_a_blank_line() {
        let src = "\
// audit: monotone counter, coherence suffices
a.fetch_add(1, Ordering::Relaxed);
b.fetch_add(1, Ordering::Relaxed);

c.fetch_add(1, Ordering::Relaxed);
";
        let findings = scan_file("crates/x/src/lib.rs", src);
        assert_eq!(findings.len(), 3);
        assert!(findings[0].allowable && findings[1].allowable);
        assert_eq!(findings[0].key, "monotone counter, coherence suffices");
        assert!(!findings[2].allowable, "the blank line must end the annotation's scope");
    }

    #[test]
    fn unsafe_requires_safety_and_registration() {
        let bare = "let rc = unsafe { libc_call() };\n";
        let f = scan_file("crates/x/src/lib.rs", bare);
        assert_eq!(f.len(), 1);
        assert!(!f[0].allowable);

        let annotated =
            "// SAFETY: the pointer outlives the call\nlet rc = unsafe { libc_call() };\n";
        let f = scan_file("crates/x/src/lib.rs", annotated);
        assert_eq!(f.len(), 1);
        assert!(f[0].allowable);
        assert_eq!(f[0].key, "the pointer outlives the call");
    }

    #[test]
    fn hot_panic_fires_only_in_hot_modules_and_skips_tests() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let cold = scan_file("crates/spade-gen/src/lib.rs", src);
        assert!(cold.is_empty());
        let hot = scan_file("crates/spade-core/src/service.rs", src);
        assert_eq!(hot.len(), 1, "the cfg(test) module must be skipped: {hot:?}");
        assert_eq!(hot[0].line, 1);
    }

    #[test]
    fn unwrap_or_else_is_not_a_panic_site() {
        let src = "fn f() { x.unwrap_or_else(|| 3); y.unwrap_or(0); }\n";
        assert!(scan_file("crates/spade-core/src/service.rs", src).is_empty());
    }

    #[test]
    fn instant_in_loop_fires_only_inside_loops() {
        let src = "\
fn f() {
    let t0 = Instant::now();
    for e in edges {
        let t = Instant::now();
    }
    while go() {
        if x { let u = Instant::now(); }
    }
}
";
        let f = scan_file("crates/spade-net/src/reactor.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == Rule::InstantLoop).count(), 2);
        assert!(f.iter().all(|f| f.line == 4 || f.line == 7));
    }

    #[test]
    fn wire_arith_requires_checked_ops() {
        let bad = "let n = 4 + payload.len();\n";
        let f = scan_file("crates/spade-net/src/wire.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::WireArith);

        let good = "let n = count.checked_mul(width);\nlet m = base.saturating_add(x.len());\n";
        assert!(scan_file("crates/spade-net/src/wire.rs", good).is_empty());

        let elsewhere = scan_file("crates/spade-core/src/service.rs", bad);
        assert!(elsewhere.iter().all(|f| f.rule != Rule::WireArith));
    }

    #[test]
    fn dangling_ref_reports_names_the_tree_lacks_and_skips_patterns() {
        let tree = Tree::of(&[("bin", "spade"), ("test", "sharded")], &["ci/check_fanin.py"]);
        let live = "run `--bin spade`, `--test sharded -- --test-threads=1`, ci/check_fanin.py.\n\
                    patterns: --bin <name>, ci/*.py, BENCH_*.json, SPADE_BENCH_X.json, docs/ci/x.py\n";
        assert!(scan_doc("README.md", live, &tree).is_empty());

        let dead = "cargo bench --bench spade\npython3 ci/check_gone.py BENCH_gone.fresh.json\n";
        let findings = scan_doc("README.md", dead, &tree);
        let keys: Vec<_> = findings.iter().map(|f| (f.line, f.key.as_str())).collect();
        // A bin named `spade` does not make `--bench spade` live.
        assert_eq!(
            keys,
            [(1, "--bench spade"), (2, "ci/check_gone.py"), (2, "BENCH_gone.fresh.json")]
        );
        assert!(findings.iter().all(|f| f.rule == Rule::DanglingRef && !f.allowable));
    }

    #[test]
    fn tree_indexes_discovered_and_declared_targets_of_this_checkout() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let tree = Tree::from_root(&root).expect("index");
        // Declared `[[bin]]` (spade-cli names its `src/main.rs` bin
        // `spade`, so the package name is not a target) …
        assert!(tree.has_target("bin", "spade") && tree.has_target("bin", "spade-lint"));
        assert!(!tree.has_target("bin", "spade-cli"));
        // … discovered `src/bin/*.rs`, `tests/*.rs`, `examples/*.rs` …
        assert!(tree.has_target("bin", "shardd") && tree.has_target("test", "lock_order"));
        assert!(tree.has_target("example", "quickstart"));
        // … the standalone benchmark package, and the gate files.
        assert!(tree.has_target("bin", "bench_stack"));
        assert!(tree.has_path("ci/check_fanin.py") && tree.has_path("ci/fixtures"));
        assert!(!tree.has_path("ci/check"));
    }

    #[test]
    fn allowlist_parses_and_permits() {
        let text = "# comment\n\nrelaxed\tcrates/x/src/lib.rs\tmonotone counter\n";
        let allow = Allowlist::parse(text).expect("parse");
        assert_eq!(allow.len(), 1);
        let f = Finding {
            rule: Rule::Relaxed,
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            key: "monotone counter".into(),
            message: String::new(),
            allowable: true,
        };
        assert!(allow.permits(&f));
        let other = Finding { key: "different".into(), ..f.clone() };
        assert!(!allow.permits(&other));
        let unallowable = Finding { allowable: false, ..f };
        assert!(!allow.permits(&unallowable));
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(Allowlist::parse("relaxed only-two-columns\n").is_err());
        assert!(Allowlist::parse("bogus-rule\tpath\tkey\n").is_err());
        assert!(Allowlist::parse("relaxed\tpath\t\n").is_err());
    }

    #[test]
    fn stale_entries_are_reported() {
        let allow = Allowlist::parse("relaxed\tcrates/x/src/lib.rs\tgone\n").expect("parse");
        let stale = allow.stale_entries(&[]);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].2, "gone");
    }

    #[test]
    fn evaluate_separates_violations_from_audited_sites() {
        let src =
            "// audit: ok\na.load(Ordering::Relaxed);\n\nfn f() { b.load(Ordering::Relaxed); }\n";
        let findings = scan_file("crates/x/src/lib.rs", src);
        let allow = Allowlist::parse("relaxed\tcrates/x/src/lib.rs\tok\n").expect("parse");
        let eval = evaluate(&findings, &allow);
        assert_eq!(eval.violations.len(), 1, "{:?}", eval.violations);
        assert!(eval.stale.is_empty());
        assert_eq!(eval.audited.iter().find(|(r, _)| *r == Rule::Relaxed).unwrap().1, 2);
    }
}
