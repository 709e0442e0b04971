//! Pins the bytes of the synthetic graph generators. Every downstream
//! artifact, snapshot and golden count depends on these CSRs, so a
//! generator rewrite (for speed, say) must reproduce them exactly: the
//! digests below are FNV-1a 64 over the little-endian `row_ptr` and
//! `adj` arrays of `GraphInput::generate`.

use dynapar_engine::fnv1a_64;
use dynapar_workloads::apps::GraphInput;
use dynapar_workloads::graphs::Csr;
use dynapar_workloads::Scale;

/// `(row_ptr, adj)` digests, rebuilt through the public accessors.
fn digests(g: &Csr) -> (u64, u64) {
    let n = g.vertex_count() as u32;
    let row_ptr: Vec<u8> = (0..=n)
        .flat_map(|v| g.row_offset(v).to_le_bytes())
        .collect();
    let adj: Vec<u8> = (0..n)
        .flat_map(|v| g.neighbors(v).iter().flat_map(|x| x.to_le_bytes()))
        .collect();
    assert_eq!(adj.len(), g.edge_count() * 4);
    (fnv1a_64(&row_ptr), fnv1a_64(&adj))
}

#[test]
fn generator_outputs_are_pinned() {
    let pinned: [(GraphInput, Scale, u64, (u64, u64)); 8] = [
        (
            GraphInput::Graph500,
            Scale::Tiny,
            1,
            (0x1011_36cc_869a_bc16, 0xfe9c_498b_86d8_ccd8),
        ),
        (
            GraphInput::Graph500,
            Scale::Tiny,
            7,
            (0x49a8_32fc_4795_2027, 0xadbb_bd55_2c47_7a08),
        ),
        (
            GraphInput::Graph500,
            Scale::Small,
            1,
            (0x4750_01ff_9e5b_9fe6, 0xdf22_1fc2_dce3_f1fe),
        ),
        (
            GraphInput::Graph500,
            Scale::Small,
            7,
            (0x34ec_909e_9f3a_e1c0, 0xf73e_836e_3891_f227),
        ),
        (
            GraphInput::Citation,
            Scale::Tiny,
            1,
            (0xca9d_e7b0_7e99_f1f2, 0xa8b1_9cf5_8eaf_29b9),
        ),
        (
            GraphInput::Citation,
            Scale::Tiny,
            7,
            (0xd03c_ef98_48b7_a0de, 0xbda8_dc5b_bb45_ce65),
        ),
        (
            GraphInput::Citation,
            Scale::Small,
            1,
            (0x6b4b_a19b_d3f8_df94, 0x1108_0555_4803_2b15),
        ),
        (
            GraphInput::Citation,
            Scale::Small,
            7,
            (0x26c7_d662_f53d_fa95, 0x23a5_601e_9e3b_d4e9),
        ),
    ];
    for (input, scale, seed, want) in pinned {
        let got = digests(&input.generate(scale, seed));
        assert_eq!(
            got, want,
            "{input:?} {scale:?} seed {seed} moved: ({:#018x}, {:#018x})",
            got.0, got.1
        );
    }
}
