//! Regression test: MIG networks express AND/OR as majorities with constant
//! fanins, so the composed cut function must honor the complement bit on a
//! constant-cut fanin edge (OR = Maj(a, b, const1)).

use mch_cut::{enumerate_cuts, legacy_enumerate_cuts, CutParams};
use mch_logic::{Network, NetworkKind};

#[test]
fn mig_with_constant_fanins_matches_legacy() {
    let mut n = Network::new(NetworkKind::Mig);
    let a = n.add_input();
    let b = n.add_input();
    let c = n.add_input();
    let d = n.add_input();
    let ab = n.or(a, b); // Maj(a, b, const1)
    let cd = n.and(c, d); // Maj(c, d, const0)
    let m1 = n.maj3(ab, cd, c);
    let m2 = n.maj3(m1, !cd, d);
    n.add_output(m2);
    let params = CutParams::new(4, 8);
    let old = legacy_enumerate_cuts(&n, &params);
    let new = enumerate_cuts(&n, &params);
    for id in n.node_ids() {
        let (x_set, y_set) = (new.of(id), old.of(id));
        assert_eq!(x_set.len(), y_set.len(), "cut count at {id}");
        for (x, y) in x_set.iter().zip(y_set.iter()) {
            assert_eq!(x.leaves(), y.leaves(), "leaves at {id}");
            assert_eq!(
                x.function().words(),
                y.function().words(),
                "function at {id}, cut {x}"
            );
        }
    }
}
