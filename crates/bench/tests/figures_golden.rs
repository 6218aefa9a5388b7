//! Golden figure output: `all_figures --quick` prints the same bytes on
//! every run and every host, because every figure is a pure function of
//! seeded simulations and no figure reads a clock. The committed file is
//! that output; this test regenerates it in-process — one rendered
//! figure plus a newline per registered experiment, in registry order,
//! exactly as the binary prints them — and names the first line that
//! differs.
//!
//! After a deliberate change to a figure, regenerate the file with
//! `cargo run --release --bin all_figures -- --quick > crates/bench/tests/all_figures_quick.txt`.

use calciom_bench::{Registry, RunOptions};

const GOLDEN: &str = include_str!("all_figures_quick.txt");

#[test]
fn quick_output_matches_the_committed_golden_file() {
    let registry = Registry::standard();
    let opts = RunOptions::new(true);
    let mut output = String::new();
    for experiment in registry.experiments() {
        let run = experiment
            .run_with(&opts)
            .unwrap_or_else(|e| panic!("{}: {e}", experiment.name()));
        output.push_str(&run.figure.render());
        output.push('\n');
    }
    let (mut want, mut got) = (GOLDEN.lines(), output.lines());
    for line in 1.. {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) => assert_eq!(
                g, w,
                "all_figures --quick differs from the golden file at line {line}"
            ),
        }
    }
    assert!(output == GOLDEN, "line endings differ from the golden file");
}
