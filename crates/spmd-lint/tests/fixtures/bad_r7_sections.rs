//! Checkpoint completeness over a sectioned encoder: `Snap` is written
//! as a base section and a delta section, and the two encoders cover it
//! between them — except `stale`, which is in neither, so a restore
//! would silently lose it — R7.

pub struct Snap {
    pub fixed: u64,
    pub moving: f64,
    pub stale: u32,
}

fn encode_base(s: &Snap, out: &mut Vec<u8>) {
    s.fixed.encode_into(out);
}

fn encode_delta(s: &Snap, out: &mut Vec<u8>) {
    s.moving.encode_into(out);
}
