//! The `lab` CLI: every experiment behind one binary.
//!
//! ```sh
//! cargo run --release -p cohesion-bench --bin lab -- list
//! cargo run --release -p cohesion-bench --bin lab -- run separation_matrix
//! cargo run --release -p cohesion-bench --bin lab -- all --quick
//! cargo run --release -p cohesion-bench --bin lab -- run k_scaling --progress
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = cohesion_bench::lab::lab_main(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
