//! The standalone `cohesion-lint` binary.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
cohesion-lint — determinism & concurrency invariant checker

usage: cohesion-lint [--root DIR] [--json]

  --root DIR   workspace root (default: walk up from the current directory)
  --json       machine-readable report on stdout

Rules D1–D6 are documented in the README's \"Static analysis\"
section. Suppressions live in the checked-in lint.toml allowlist; every
entry requires a written justification. Exit code 1 on any unallowed
violation.";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| cohesion_lint::find_workspace_root(&d))
    });
    let Some(root) = root else {
        eprintln!("no workspace root found (no Cargo.toml + crates/ above the current directory); pass --root");
        return ExitCode::from(2);
    };
    match cohesion_lint::lint_workspace(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("cohesion-lint: {e}");
            ExitCode::from(2)
        }
    }
}
