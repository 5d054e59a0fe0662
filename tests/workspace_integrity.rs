//! Workspace-integrity smoke test: asserts that every public re-export the
//! top-level integration tests and examples rely on actually resolves, so the
//! manifest/dependency graph cannot silently drift.
//!
//! Each `use` below mirrors an import in `tests/*.rs` or `examples/*.rs`; if
//! a crate stops re-exporting one of these names (or a manifest loses a
//! dependency edge), this test fails to compile — which is the point.

#![allow(unused_imports)]

use neo_bench::{Policy, Scenario};
use neo_core::config::EngineConfig;
use neo_core::engine::Engine;
use neo_core::request::Request;
use neo_core::scheduler::{NeoScheduler, Scheduler};
use neo_core::ExecutionMode;
use neo_kvcache::Device;
use neo_model::{argmax, Model, PagedKvCache};
use neo_serve::{
    run_offline, run_online, RequestHandle, RequestStatus, Server, ServerReport, TokenEvent,
};
use neo_sim::{CostModel, ModelDesc, Testbed};
use neo_workload::{azure_code_like, osc_like, synthetic, ArrivalEvent, ArrivalProcess, Trace};

/// The imports above are the real assertions; this test exists so the file
/// reports a green check instead of compiling silently.
#[test]
fn public_surface_resolves() {
    // A few spot-checks that the re-exported names refer to usable items.
    let _config = EngineConfig::default();
    let _mode = ExecutionMode::GpuOnly;
    let _device = Device::Gpu;
}

/// The determinism-hygiene gate must stay wired into CI: a `lint` job that
/// runs `neo-lint` in deny mode. Removing or renaming the job (say, in a CI
/// refactor) would silently drop the static half of the determinism contract.
#[test]
fn ci_runs_the_lint_job() {
    let ci = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.github/workflows/ci.yml");
    let yaml = std::fs::read_to_string(ci).expect("read .github/workflows/ci.yml");
    assert!(yaml.contains("\n  lint:"), "ci.yml must define a `lint` job");
    assert!(
        yaml.contains("cargo run -p neo-lint -- --deny"),
        "the lint job must run neo-lint in deny mode"
    );
}

/// The functional model must stay exercised end to end in CI: a `perfbench-smoke`
/// job that runs perfbench's tests and a short `cpu_decode` run, which exits 1 when
/// the GPU/CPU twin sequences diverge or the attention kernel drifts.
#[test]
fn ci_runs_the_perfbench_smoke_job() {
    let ci = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.github/workflows/ci.yml");
    let yaml = std::fs::read_to_string(ci).expect("read .github/workflows/ci.yml");
    assert!(yaml.contains("\n  perfbench-smoke:"), "ci.yml must define a `perfbench-smoke` job");
    assert!(
        yaml.contains("cargo test --manifest-path perfbench/Cargo.toml"),
        "the perfbench-smoke job must run perfbench's tests"
    );
    assert!(
        yaml.contains(
            "--manifest-path perfbench/Cargo.toml -- --workload cpu_decode --seed 1 \
             --seconds 1 --trace 1"
        ),
        "the perfbench-smoke job must run a traced cpu_decode smoke"
    );
}
