//! Golden stats documents: `fbdsim run --json` must reproduce the
//! committed files under `tests/golden/` byte for byte (with the
//! wall-clock `host` objects stripped).
//!
//! The cases cover every registered substrate on 1C-swim, the FCFS
//! scheduler on a four-core mix, and the full reliability lifecycle
//! armed on FBD-AP. Unlike the parity tests, which compare two runs of
//! the current binary, these pin absolute outputs: a change that
//! shifts every run the same way fails here.
//!
//! To regenerate after an intentional output change:
//! `BLESS=1 cargo test -p fbd-core --test golden`.

#[path = "support/mod.rs"]
mod support;

use support::{fbdsim, strip_host};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

const ARMED: &[&str] = &[
    "--fault-ber",
    "1e-4",
    "--fault-seed",
    "3",
    "--crc-bits",
    "4",
    "--scrub",
    "patrol",
    "--reissue",
    "8",
];

/// `(golden file stem, workload, substrate, extra flags)`.
const CASES: &[(&str, &str, &str, &[&str])] = &[
    ("1C-swim-ddr2", "1C-swim", "ddr2", &[]),
    ("1C-swim-fbd", "1C-swim", "fbd", &[]),
    ("1C-swim-fbd-ap", "1C-swim", "fbd-ap", &[]),
    ("1C-swim-fbd-apfl", "1C-swim", "fbd-apfl", &[]),
    ("1C-swim-fbd-ddr3", "1C-swim", "fbd-ddr3", &[]),
    ("1C-swim-ddr3-1066", "1C-swim", "ddr3-1066", &[]),
    (
        "4C-1-fbd-ap-fcfs",
        "4C-1",
        "fbd-ap",
        &["--scheduler", "fcfs"],
    ),
    ("1C-swim-fbd-ap-armed", "1C-swim", "fbd-ap", ARMED),
];

#[test]
fn run_documents_match_the_goldens() {
    let bless = std::env::var_os("BLESS").is_some();
    let mut diverged = Vec::new();
    for (stem, workload, substrate, extra) in CASES {
        let mut args = vec![
            "run",
            "--workload",
            workload,
            "--substrate",
            substrate,
            "--budget",
            "5000",
            "--json",
        ];
        args.extend_from_slice(extra);
        let out = fbdsim(&args);
        assert!(
            out.status.success(),
            "fbdsim {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = strip_host(&String::from_utf8(out.stdout).expect("utf-8 stats JSON")) + "\n";
        let path = format!("{GOLDEN_DIR}/{stem}.json");
        if bless {
            std::fs::write(&path, &got).expect("write golden");
        } else if std::fs::read_to_string(&path).expect("golden present") != got {
            diverged.push(path);
        }
    }
    assert!(
        diverged.is_empty(),
        "stats documents diverged from the goldens: {diverged:?}"
    );
}
