//! Output verification: trace digests and the digests recorded for the
//! default seed.
//!
//! Every run renders its canonical trace and folds it into a 64-bit digest;
//! the digests of a cell's runs fold, in run order, into the cell's digest.
//! At the default seed and the default sizes each cell's digest must match
//! the one recorded below; at any other seed or size only the
//! seed-independent checks apply (trace invariants and the byte-identical
//! interpreted-vs-compiled trace).
//!
//! To re-record after a deliberate change of the traces, run
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload <w> --print-digests`
//! and paste its output over the workload's table.

/// The seed the paper's generator uses, and the one the digests below were
/// recorded at.
pub const DEFAULT_SEED: u64 = 1983;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 8-byte little-endian words (the tail zero-padded), then the
/// length: one multiply per word keeps hashing a 300 MB rendering cheap
/// next to producing it.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut acc = FNV_OFFSET;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        acc = (acc ^ word).wrapping_mul(FNV_PRIME);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    acc = (acc ^ u64::from_le_bytes(tail)).wrapping_mul(FNV_PRIME);
    fold(acc, bytes.len() as u64)
}

/// Folds one digest into an accumulated one (order-sensitive).
pub fn fold(acc: u64, digest: u64) -> u64 {
    (acc ^ digest).wrapping_mul(FNV_PRIME)
}

/// The starting value of a cell's folded digest.
pub const EMPTY: u64 = FNV_OFFSET;

/// Expected cell digests, by cell name.
pub type Expected = &'static [(&'static str, u64)];

/// The digests recorded at [`DEFAULT_SEED`] and the default sizes.
pub fn recorded(workload: &str) -> Expected {
    match workload {
        "paper_sweep" => PAPER_SWEEP,
        "long_horizon" => LONG_HORIZON,
        "overload_faults" => OVERLOAD_FAULTS,
        _ => &[],
    }
}

const PAPER_SWEEP: Expected = &[
    ("PS/sim/1-0", 0xb7196c15eb0f74b3),
    ("PS/sim/2-0", 0x3c107f3aed4293fc),
    ("PS/sim/3-0", 0x6257fd51ae03ff58),
    ("PS/sim/1-2", 0x0e8518fdcccbe176),
    ("PS/sim/2-2", 0xf366df06b3ca78af),
    ("PS/sim/3-2", 0xc78fb1e273efe1d4),
    ("PS/exec/1-0", 0xa5aa7158183c19b5),
    ("PS/exec/2-0", 0x8571b6e4a31f6528),
    ("PS/exec/3-0", 0x4f72a1c493615d4a),
    ("PS/exec/1-2", 0xa425c32a5470c907),
    ("PS/exec/2-2", 0x84086cbd1c6b3df5),
    ("PS/exec/3-2", 0x19d5b16fed4e54cc),
    ("DS/sim/1-0", 0x8193928022bec3f8),
    ("DS/sim/2-0", 0x240467894d47efcb),
    ("DS/sim/3-0", 0x313936db2d5cf7b6),
    ("DS/sim/1-2", 0xeda393de86832bc6),
    ("DS/sim/2-2", 0x6a214e603068d507),
    ("DS/sim/3-2", 0x845911e225987a25),
    ("DS/exec/1-0", 0xe48778ae1b46f0c6),
    ("DS/exec/2-0", 0xbbca93d5b230de15),
    ("DS/exec/3-0", 0xf21bd1425b8410ac),
    ("DS/exec/1-2", 0x98b943d4a8a1ad9f),
    ("DS/exec/2-2", 0x7a00d31d8441bcda),
    ("DS/exec/3-2", 0x5035de279c39e1d7),
];

const LONG_HORIZON: Expected = &[
    ("long/sim", 0x7df1fded7845b0db),
    ("long/exec", 0x586127aa379cbd4a),
];

const OVERLOAD_FAULTS: Expected = &[
    ("overload/0.5x/accept/exec", 0xa5aa7158183c19b5),
    ("overload/0.5x/accept/sim", 0xb7196c15eb0f74b3),
    ("overload/0.5x/predictive/exec", 0x15c9b3134cb91aff),
    ("overload/0.5x/predictive/sim", 0x9bbbf08d185a5cae),
    ("overload/0.5x/dover/exec", 0xf64c8447ec139362),
    ("overload/0.5x/dover/sim", 0x7011d66facecd061),
    ("overload/1x/accept/exec", 0x8571b6e4a31f6528),
    ("overload/1x/accept/sim", 0x3c107f3aed4293fc),
    ("overload/1x/predictive/exec", 0x674aa8dea9cc95a4),
    ("overload/1x/predictive/sim", 0xac82256468185ede),
    ("overload/1x/dover/exec", 0x67525d267d2a04a9),
    ("overload/1x/dover/sim", 0x3a867ca2bfa89394),
    ("overload/2x/accept/exec", 0xb1a4cdeb5c802151),
    ("overload/2x/accept/sim", 0x0b5e0dcfda57eef9),
    ("overload/2x/predictive/exec", 0x1040f57fb7ed629b),
    ("overload/2x/predictive/sim", 0xa60bfcd90e246eac),
    ("overload/2x/dover/exec", 0xef46b137b735e2c0),
    ("overload/2x/dover/sim", 0xcbd8aba7612946fa),
    ("overload/4x/accept/exec", 0x921a5e2bbb31238a),
    ("overload/4x/accept/sim", 0x106ac77b4dd14964),
    ("overload/4x/predictive/exec", 0x8b0f90f056a0d42d),
    ("overload/4x/predictive/sim", 0xe55ffa95b5051f03),
    ("overload/4x/dover/exec", 0x85480e64f1bce7c0),
    ("overload/4x/dover/sim", 0x53a1bbd3e97ac096),
    ("faults/baseline/exec", 0x1040f57fb7ed629b),
    ("faults/baseline/sim", 0xa60bfcd90e246eac),
    ("faults/overrun-25%/exec", 0xf7b09b384f144a62),
    ("faults/overrun-25%/sim", 0xd75ddaf45009a033),
    ("faults/overrun-50%/exec", 0x2cc93612abedf8b7),
    ("faults/overrun-50%/sim", 0xf40a8bc0d317e77c),
    ("faults/arrival-noise/exec", 0x3549d4854ea8cbf3),
    ("faults/arrival-noise/sim", 0x83a6b06868e314b0),
    ("faults/mode-shrink/exec", 0x3f8c9f33bc0469db),
    ("faults/mode-shrink/sim", 0x11bffb70d017444f),
    ("faults/mode-swap-bg/exec", 0x765262f575ad665f),
    ("faults/mode-swap-bg/sim", 0xae32b2f6be933d06),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_byte_and_the_length() {
        let a = digest_bytes(b"seg t0 0 10\n");
        assert_ne!(a, digest_bytes(b"seg t0 0 11\n"));
        assert_ne!(digest_bytes(b"ab"), digest_bytes(b"ab\0"));
        assert_eq!(a, digest_bytes(b"seg t0 0 10\n"));
    }
}
