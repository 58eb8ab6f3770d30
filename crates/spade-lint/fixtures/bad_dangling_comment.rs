//! Self-test fixture for `dangling-ref` over Rust comments: a module that
//! outlived the design note it cites. The self-test judges it against a
//! tree whose only root document is README.md; every citation marked
//! DEAD must be reported and nothing else. Never compiled.
//!
//! Live — none of these may fire: the README.md quickstart, a path tail
//! such as benchmark/NOTES.md, a lowercase notes.md, the `<NAME>.md`
//! pattern and a NOTES.mdx file of another kind.
//!
//! DEAD: the substitution argument lives in DESIGN.md §2.

/// DEAD: the layering is drawn in ARCHITECTURE.md.
pub fn cited() -> &'static str {
    // A string is not a comment: the literal below must not fire.
    "GONE.md" // DEAD: ROADMAP_V2.md
}
