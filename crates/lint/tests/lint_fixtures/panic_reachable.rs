//! Fixture for `panic-reachable`: the hot-path root `step_decision`
//! reaches every panicky construct, the indexing site two calls deep.
//! Each finding must print the full root-to-site chain, hop by hop.

pub fn step_decision(xs: &[u64], i: usize) -> u64 {
    let a = xs.first().unwrap();
    let b = xs.last().expect("non-empty");
    if xs.is_empty() {
        panic!("empty sample window");
    }
    if i == usize::MAX {
        unimplemented!()
    }
    let _ = (a, b);
    route(xs, i)
}

fn route(xs: &[u64], i: usize) -> u64 {
    if i > xs.len() {
        todo!()
    }
    pick(xs, i)
}

fn pick(xs: &[u64], i: usize) -> u64 {
    xs[i]
}

fn cold(xs: &[u64]) -> u64 {
    xs[0]
}
