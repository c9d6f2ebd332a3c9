// R2 fixture: a map with a custom hasher is still a hash map. The third
// type parameter changes how keys are mixed, not that iteration follows
// the table's layout — which differs between ranks as soon as their
// insertion histories do.
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

pub type IdBuild = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

pub fn slots_on_the_wire(m: HashMap<u32, u32, IdBuild>) -> Vec<u32> {
    let mut wire = Vec::new();
    for (k, v) in &m {
        wire.push(*k);
        wire.push(*v);
    }
    wire
}
