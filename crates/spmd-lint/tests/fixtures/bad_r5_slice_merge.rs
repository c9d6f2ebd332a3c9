// R2 fixture (the retired R5's case): the slice-merge mutant. The sweep's
// partial MDL sums are folded in hash-map (worker-completion) order instead of
// fixed slice order; f64 addition is not associative, so the merged MDL
// depends on which worker landed where in the map — exactly the
// determinism leak the fixed-slice-order merge in `find_best_modules`
// exists to prevent.
use std::collections::HashMap;

pub fn merge_slices_shuffled(by_worker: &HashMap<usize, f64>) -> f64 {
    let mut mdl = 0.0;
    for partial in by_worker.values() {
        mdl += partial;
    }
    mdl
}
