//! Frozen output hashes (FNV-1a). Regenerate with `perfbench --pins` only
//! when a change is meant to alter rows or reports.

/// Per experiment: the hash of its full-profile JSONL row bytes (what
/// `lab run <name>` writes).
pub const LAB_ROWS: &[(&str, u64)] = &[
    ("timelines", 0xca6329bc619de354),
    ("safe_regions", 0x6d9cc8c0b75d723a),
    ("ando_separation", 0x678213bcdced8cb5),
    ("lemmas", 0x86baa0fe01e9ab39),
    ("chain_invariant", 0xbbb0ae4276b12071),
    ("separation_matrix", 0x45a86b2a94bcdc3f),
    ("convergence_rate", 0x9493c708b0ae0b5e),
    ("error_tolerance", 0x79a59936cda99cc7),
    ("k_scaling", 0xc4c7a2dada1728aa),
    ("impossibility", 0xfeb0ce47da179154),
    ("extensions", 0x5a104637decb709f),
];

/// Per swarm workload and arm: the hash of the serialized report at
/// `swarm::DEFAULT_SEED`.
pub const SWARM_REPORTS: &[(&str, &str, u64)] = &[
    ("swarm_monitored", "fsync", 0x272e0cbbccdb67ae),
    ("swarm_monitored", "async", 0x7c8a02eefeba4c6f),
    ("swarm_large", "fsync", 0x372ee632ff8d5679),
    ("swarm_large", "async", 0xf173c814c038cdd6),
];
