// R2 fixture (the retired R5's case): an f64 fold in hash-iteration order.
// f64 addition is not associative, so the sum depends on the iteration
// order and differs across processes.
use std::collections::HashMap;

pub fn modular_cost(flows: &HashMap<u64, f64>) -> f64 {
    let mut total = 0.0;
    for f in flows.values() {
        total += f;
    }
    total
}
