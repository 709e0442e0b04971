//! Snapshot/resume byte-identity matrix: for every combination of
//! capture cycle {start, mid-run, late-run} × launch policy
//! {spawn, dtbl, free-launch},
//! a run that snapshots at cycle C and a fresh run resumed from that
//! snapshot must both reproduce the uninterrupted run's artifact byte
//! for byte. This is the invariant that makes warm-start fork sweeps a
//! pure optimization.

use dynapar_core::PolicySpec;
use dynapar_gpu::MetricsLevel;
use dynapar_server::{GpuPreset, JobRequest, WarmStart, WorkloadRef};
use dynapar_workloads::Scale;

fn job(policy: PolicySpec) -> JobRequest {
    JobRequest {
        workload: WorkloadRef::Suite {
            bench: "AMR".to_string(),
            scale: Scale::Tiny,
        },
        policy,
        seed: 7,
        metrics: MetricsLevel::Full,
        gpu: GpuPreset::KeplerK20m,
    }
}

#[test]
fn resume_is_byte_identical_across_cycles_and_policies() {
    let policies = [PolicySpec::Spawn, PolicySpec::Dtbl, PolicySpec::FreeLaunch];
    for policy in &policies {
        let req = job(policy.clone());
        let cold_out = req.run(None).expect("cold run");
        let total = cold_out.report.total_cycles;
        let cold = cold_out.artifact.expect("artifact").to_string();
        assert!(total >= 4, "run long enough to pick interior cycles");
        for cycle in [0, total / 2, total * 3 / 4] {
            let cell = format!("policy {policy:?}, cycle {cycle}");
            let armed = req
                .execute(WarmStart::Armed { cycle }, None)
                .expect("armed run");
            assert_eq!(
                armed.artifact.expect("artifact").to_string(),
                cold,
                "arming a snapshot changed artifact bytes ({cell})"
            );
            let snap = armed.snapshot.expect("snapshot captured mid-run");
            let resumed = req
                .execute(WarmStart::Resume { snapshot: &snap }, None)
                .expect("resumed run");
            assert_eq!(
                resumed.artifact.expect("artifact").to_string(),
                cold,
                "resumed run diverged from the uninterrupted run ({cell})"
            );
        }
    }
}

#[test]
fn corrupted_and_truncated_snapshots_are_rejected() {
    let req = job(PolicySpec::Spawn);
    let total = req.run(None).expect("cold").report.total_cycles;
    let snap = req
        .execute(WarmStart::Armed { cycle: total / 2 }, None)
        .expect("armed")
        .snapshot
        .expect("snapshot captured");

    // Truncations at every interesting boundary are refused.
    for cut in [0, 1, snap.len() / 2, snap.len() - 1] {
        assert!(
            req.execute(WarmStart::Resume { snapshot: &snap[..cut] }, None).is_err(),
            "truncated snapshot ({cut} of {} bytes) must be rejected",
            snap.len()
        );
    }

    // A flipped byte in the state region trips the integrity hash.
    let header_end = snap.iter().position(|&b| b == b'\n').expect("header line") + 1;
    let mut bad = snap.clone();
    let idx = header_end + (bad.len() - header_end) / 2;
    bad[idx] ^= 0xff;
    assert!(
        req.execute(WarmStart::Resume { snapshot: &bad }, None).is_err(),
        "state corruption must be rejected"
    );

    // A damaged header never reaches the state decoder.
    let mut bad = snap.clone();
    bad[2] ^= 0x01;
    assert!(
        req.execute(WarmStart::Resume { snapshot: &bad }, None).is_err(),
        "header corruption must be rejected"
    );
}
