//! `spade-lint` CLI.
//!
//! ```text
//! cargo run -p spade-lint -- --workspace [--root DIR] [--allowlist FILE]
//! cargo run -p spade-lint -- --self-test
//! ```
//!
//! `--workspace` scans the repository and exits non-zero on any
//! violation: an unannotated `Ordering::Relaxed` or `unsafe`, an
//! annotation or hot-path/wire/sleep finding not registered in the
//! allowlist
//! (`spade-lint.allow` at the workspace root by default), a stale
//! allowlist entry that no longer matches any site, a doc / CI
//! reference to a cargo target, `ci/` file or `BENCH_*.json` baseline
//! that is not in the tree, or a Rust comment citing a root `<NAME>.md`
//! document that is not there.
//!
//! `--self-test` proves the detector still detects: it runs the rules
//! over committed bad fixtures (unannotated relaxed, hot-path unwrap,
//! unchecked wire-length arithmetic, bare unsafe, clock-in-loop, a
//! runtime `thread::sleep`, a doc naming deleted targets, comments citing
//! missing documents) and a good fixture, failing if any expected finding goes missing — mirroring the
//! `--self-test` pattern of the `ci/` gate scripts.

use spade_lint::{
    evaluate, scan_doc, scan_file, scan_source_refs, scan_workspace, Allowlist, Finding, Rule, Tree,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut self_test = false;
    let mut root = PathBuf::from(".");
    let mut allowlist_path: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--self-test" => self_test = true,
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root requires a directory"),
            },
            "--allowlist" => match it.next() {
                Some(file) => allowlist_path = Some(PathBuf::from(file)),
                None => return usage("--allowlist requires a file"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    match (workspace, self_test) {
        (true, false) => run_workspace(root, allowlist_path),
        (false, true) => run_self_test(),
        _ => usage("pass exactly one of --workspace or --self-test"),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("spade-lint: {err}");
    eprintln!("usage: spade-lint --workspace [--root DIR] [--allowlist FILE]");
    eprintln!("       spade-lint --self-test");
    ExitCode::from(2)
}

fn run_workspace(root: PathBuf, allowlist_path: Option<PathBuf>) -> ExitCode {
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        eprintln!(
            "spade-lint: {} does not look like the workspace root (pass --root)",
            root.display()
        );
        return ExitCode::from(2);
    }
    let allowlist_path = allowlist_path.unwrap_or_else(|| root.join("spade-lint.allow"));
    let allowlist = match std::fs::read_to_string(&allowlist_path) {
        Ok(text) => match Allowlist::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("spade-lint: {}: {e}", allowlist_path.display());
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!("spade-lint: cannot read {}: {e}", allowlist_path.display());
            return ExitCode::from(2);
        }
    };

    let findings = match scan_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("spade-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let eval = evaluate(&findings, &allowlist);

    for v in &eval.violations {
        println!("{v}");
        if v.allowable {
            println!("    register it: {}\t{}\t{}", v.rule.name(), v.path, v.key);
        }
    }
    for (rule, path, key) in &eval.stale {
        println!("{path}: [{0}] stale allowlist entry (no matching site): {key:?}", rule.name());
    }

    let audited: usize = eval.audited.iter().map(|(_, n)| n).sum();
    let per_rule: Vec<String> =
        eval.audited.iter().map(|(r, n)| format!("{} {}", n, r.name())).collect();
    println!(
        "spade-lint: {} audited sites ({}), {} allowlist entries, {} violations, {} stale",
        audited,
        per_rule.join(", "),
        allowlist.len(),
        eval.violations.len(),
        eval.stale.len()
    );
    if eval.violations.is_empty() && eval.stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One self-test case: a fixture scanned under an assumed identity must
/// produce at least one finding of `rule`; `unallowable` additionally
/// requires a finding no allowlist could bless.
struct Case {
    name: &'static str,
    scan_as: &'static str,
    source: &'static str,
    rule: Rule,
    unallowable: bool,
}

fn run_self_test() -> ExitCode {
    let cases = [
        Case {
            name: "bad_relaxed",
            scan_as: "crates/spade-core/src/service.rs",
            source: include_str!("../fixtures/bad_relaxed.rs"),
            rule: Rule::Relaxed,
            unallowable: true,
        },
        Case {
            name: "bad_hot_unwrap",
            scan_as: "crates/spade-core/src/service.rs",
            source: include_str!("../fixtures/bad_hot_unwrap.rs"),
            rule: Rule::HotPanic,
            unallowable: false,
        },
        Case {
            name: "bad_wire_len",
            scan_as: "crates/spade-net/src/wire.rs",
            source: include_str!("../fixtures/bad_wire_len.rs"),
            rule: Rule::WireArith,
            unallowable: false,
        },
        Case {
            name: "bad_unsafe",
            scan_as: "crates/spade-core/src/service.rs",
            source: include_str!("../fixtures/bad_unsafe.rs"),
            rule: Rule::Unsafe,
            unallowable: true,
        },
        Case {
            name: "bad_instant_loop",
            scan_as: "crates/spade-net/src/reactor.rs",
            source: include_str!("../fixtures/bad_instant_loop.rs"),
            rule: Rule::InstantLoop,
            unallowable: false,
        },
        Case {
            name: "bad_sleep",
            scan_as: "crates/spade-core/src/shard/service.rs",
            source: include_str!("../fixtures/bad_sleep.rs"),
            rule: Rule::Sleep,
            unallowable: false,
        },
    ];

    let mut failed = false;
    for case in &cases {
        let findings = scan_file(case.scan_as, case.source);
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == case.rule).collect();
        let ok = !hits.is_empty() && (!case.unallowable || hits.iter().any(|f| !f.allowable));
        println!(
            "self-test {}: {} ({} {} findings)",
            case.name,
            if ok { "PASS" } else { "FAIL" },
            hits.len(),
            case.rule.name()
        );
        failed |= !ok;
    }

    // The good fixture: every site is annotated, nothing unallowable,
    // and no hot-path/wire finding at all.
    let good = include_str!("../fixtures/good.rs");
    for scan_as in ["crates/spade-core/src/service.rs", "crates/spade-net/src/wire.rs"] {
        let findings = scan_file(scan_as, good);
        let bad: Vec<_> = findings
            .iter()
            .filter(|f| {
                !f.allowable
                    || matches!(
                        f.rule,
                        Rule::HotPanic | Rule::InstantLoop | Rule::WireArith | Rule::Sleep
                    )
            })
            .collect();
        let ok = bad.is_empty();
        println!("self-test good fixture as {scan_as}: {}", if ok { "PASS" } else { "FAIL" });
        for f in bad {
            println!("    unexpected: {f}");
            failed = true;
        }
    }

    // The doc fixture mixes live and dead references: exactly the dead
    // ones must be reported, against a tree given here so the verdict
    // does not depend on the checkout.
    let tree = Tree::of(
        &[
            ("package", "spade-net"),
            ("example", "bench_fanin"),
            ("test", "lock_order"),
            ("example", "quickstart"),
        ],
        &["ci/check_fanin.py", "ci/fixtures/fanin_pass.json", "BENCH_fanin.json"],
    );
    let dead = [
        "--bin bench_retired",
        "BENCH_retired.fresh.json",
        "ci/check_retired.py",
        "BENCH_retired.json",
        "BENCH_retired.fresh.json",
        "--bench bench_sharded",
        "--test lock_ordering",
        "--example quick_start",
        "ci/fixtures/retired_baseline.json",
        "-p spade-bench",
    ];
    let findings = scan_doc("README.md", include_str!("../fixtures/bad_dangling_ref.md"), &tree);
    failed |= !exactly_dangling("bad_dangling_ref", &findings, &dead);

    // The source fixture cites documents in comments against a tree whose
    // only root document is README.md.
    let tree = Tree::of(&[], &["README.md"]);
    let source = include_str!("../fixtures/bad_dangling_comment.rs");
    let findings = scan_source_refs("crates/spade-core/src/lib.rs", source, &tree);
    failed |= !exactly_dangling(
        "bad_dangling_comment",
        &findings,
        &["DESIGN.md", "ARCHITECTURE.md", "ROADMAP_V2.md"],
    );

    if failed {
        println!("self-test: FAIL — a rule stopped detecting its fixture");
        ExitCode::FAILURE
    } else {
        println!("self-test: PASS — every rule still fires on its fixture");
        ExitCode::SUCCESS
    }
}

/// Whether `findings` are exactly the unallowable `dangling-ref` findings
/// keyed `dead`, in order; prints the verdict for fixture `name`.
fn exactly_dangling(name: &str, findings: &[Finding], dead: &[&str]) -> bool {
    let keys: Vec<&str> = findings.iter().map(|f| f.key.as_str()).collect();
    let ok = keys == dead && findings.iter().all(|f| f.rule == Rule::DanglingRef && !f.allowable);
    println!(
        "self-test {name}: {} ({} dangling-ref findings)",
        if ok { "PASS" } else { "FAIL" },
        findings.len()
    );
    if !ok {
        println!("    expected {dead:?}\n    reported {keys:?}");
    }
    ok
}
