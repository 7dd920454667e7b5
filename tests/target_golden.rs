//! Golden target code for the 18 Table 1 programs.
//!
//! `tests/golden/target_code/<slug>.txt` holds `pretty_cexpr` of every target
//! statement `diablo_core::compile` produces, with generated names
//! canonicalised by first occurrence (`v#17` → `v$0`): how many fresh names
//! the optimizer drew is not part of the contract, which term it arrived at
//! is. A change to the rewrite driver or to a rule's bookkeeping leaves
//! these files byte-identical; a change to what a rule produces shows up
//! here as a reviewable diff.
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test target_golden
//! ```

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use diablo_comp::pretty_cexpr;
use diablo_core::TStmt;
use diablo_workloads::programs::all_programs;

fn golden_path(program: &str) -> PathBuf {
    let slug = program.to_lowercase().replace(' ', "_");
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/target_code/{slug}.txt"))
}

/// Replaces every generated name `prefix#N` by `prefix$K`, `K` counting the
/// distinct generated names of the text in order of first occurrence.
fn canonicalise(text: &str) -> String {
    let mut seen: HashMap<&str, usize> = HashMap::new();
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(hash) = rest.find('#') {
        let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let start = rest[..hash]
            .rfind(|c: char| !is_ident(c))
            .map_or(0, |i| i + 1);
        let digits = rest[hash + 1..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len() - hash - 1);
        let end = hash + 1 + digits;
        let next = seen.len();
        let k = *seen.entry(&rest[start..end]).or_insert(next);
        out.push_str(&rest[..hash]);
        out.push_str(&format!("${k}"));
        rest = &rest[end..];
    }
    out + rest
}

fn print_target(stmts: &[TStmt], indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    for s in stmts {
        match s {
            TStmt::Assign { name, value, .. } => {
                out.push_str(&format!("{pad}{name} := {}\n", pretty_cexpr(value)));
            }
            TStmt::While { cond, body } => {
                out.push_str(&format!("{pad}while {} {{\n", pretty_cexpr(cond)));
                print_target(body, indent + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

#[test]
fn canonical_names_count_first_occurrences() {
    assert_eq!(
        canonicalise("{ v#17 + a#3 | (i#9, v#17) <- V, a#3 <- x_1 }"),
        "{ v$0 + a$1 | (i$2, v$0) <- V, a$1 <- x_1 }"
    );
}

#[test]
fn table1_target_code_matches_goldens() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let programs = all_programs();
    assert_eq!(programs.len(), 18, "the Table 1 corpus");
    for (name, src) in programs {
        let compiled = diablo_core::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut printed = String::new();
        print_target(&compiled.stmts, 0, &mut printed);
        let actual = canonicalise(&printed);
        let path = golden_path(name);
        if update {
            fs::create_dir_all(path.parent().expect("golden directory")).expect("create");
            fs::write(&path, &actual).expect("write golden");
            continue;
        }
        let golden = fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden file {}; run `UPDATE_GOLDEN=1 cargo test --test target_golden`",
                path.display()
            )
        });
        assert_eq!(
            actual, golden,
            "target code of {name} changed; if intentional, regenerate with \
             `UPDATE_GOLDEN=1 cargo test --test target_golden` and review the diff"
        );
    }
}
