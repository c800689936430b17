//! Cross-version golden digest of the SPICE-substitute sweep (Fig. 1,
//! step A).
//!
//! A subset of the library — one- and two-stage cells, every input pin,
//! both output polarities — is swept over the paper's full grid at the
//! nominal and at a hot corner, and the bits of every measured delay are
//! folded into one FNV digest. The expected value was recorded from an
//! earlier implementation of the transient integrator; a change to the
//! integrator's loop or to the device model's arrangement must reproduce
//! it bit for bit.

use avfs::netlist::library::Polarity;
use avfs::netlist::CellLibrary;
use avfs::spice::{sweep_pin, SweepConfig, Technology};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// One-stage (INV, NAND, NOR) and two-stage (AND, XOR, MUX) cells.
const CELLS: &[&str] = &[
    "INV_X1", "NAND2_X1", "NAND3_X2", "NAND4_X1", "NOR2_X1", "NOR3_X4", "AND2_X1", "XOR2_X1",
    "MUX2_X1",
];

const EXPECTED: u64 = 0xb088_04c0_b81b_e363;

#[test]
fn paper_sweep_digest_is_pinned() {
    let lib = CellLibrary::nangate15_like();
    let config = SweepConfig::paper();
    let nominal = Technology::nm15();
    let hot = nominal.at_temperature(85.0);
    let mut h = Fnv::new();
    let mut points = 0usize;
    for tech in [&nominal, &hot] {
        for name in CELLS {
            let cell = lib.cell(lib.find(name).expect("cell in library"));
            for pin in 0..cell.num_inputs() {
                for polarity in [Polarity::Rise, Polarity::Fall] {
                    let surface = sweep_pin(tech, cell, pin, polarity, &config)
                        .unwrap_or_else(|e| panic!("{name} pin {pin} {polarity:?}: {e}"));
                    for &d in &surface.delays_ps {
                        h.u64(d.to_bits());
                    }
                    points += surface.delays_ps.len();
                }
            }
        }
    }
    assert_eq!(points, 2 * 22 * 2 * 108);
    assert_eq!(
        h.0, EXPECTED,
        "SPICE sweep digest moved: {:#018x} (expected {EXPECTED:#018x})",
        h.0
    );
}
