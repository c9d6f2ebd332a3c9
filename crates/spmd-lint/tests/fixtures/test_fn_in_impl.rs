// A `#[test]` fn nested in a non-test `impl`: R2 skips its body by the
// parsed span, and still sees the live method next to it.
use std::collections::HashMap;

pub struct Tally(HashMap<u32, f64>);

impl Tally {
    pub fn total(&self, weights: &HashMap<u32, f64>) -> f64 {
        for w in weights.values() {
            emit(*w);
        }
        0.0
    }

    #[test]
    fn hash_order_is_fine_in_a_test() {
        let weights: HashMap<u32, f64> = HashMap::new();
        for w in weights.values() {
            emit(*w);
        }
    }
}
