//! Helpers shared by the tests that drive the `fbdsim` binary.

use std::process::{Command, Output};

use fbd_telemetry::{json, Json};

/// Runs the `fbdsim` binary built for this test with `args`.
pub fn fbdsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fbdsim"))
        .args(args)
        .output()
        .expect("fbdsim runs")
}

/// Removes every `host` object (top-level and per-point) and
/// re-serializes: the host block carries wall-clock timings that
/// legitimately differ between two invocations of the same
/// deterministic run, so byte-identity is asserted on everything else.
pub fn strip_host(text: &str) -> String {
    fn strip(j: &mut Json) {
        match j {
            Json::Obj(fields) => {
                fields.retain(|(k, _)| k != "host");
                for (_, v) in fields.iter_mut() {
                    strip(v);
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let mut doc = json::parse(text.trim()).expect("well-formed stats JSON");
    strip(&mut doc);
    doc.to_json_pretty(2)
}
