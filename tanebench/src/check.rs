//! Output checks, all run off the timed path.

use crate::host::Fnv;
use tane_baselines::{fd_g3_rows, fd_holds};
use tane_relation::Relation;
use tane_util::Fd;

/// Digest of a rendered cover: FNV-1a over its lines in output order.
pub fn cover_digest<S: AsRef<str>>(lines: &[S]) -> u64 {
    let mut h = Fnv::new();
    for line in lines {
        h.write(line.as_ref().as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// The cover as `tane discover` prints it.
pub fn render(relation: &Relation, fds: &[Fd]) -> Vec<String> {
    let names = relation.schema().names();
    fds.iter().map(|fd| fd.display_with(names)).collect()
}

/// Checks with the brute-force oracles that every dependency holds on
/// `relation` within `epsilon` (`g3` rows ÷ |r|; 0 means exact) and that
/// dropping any one LHS attribute breaks it, i.e. that it is minimal.
/// Spreads the cover over `threads` threads; returns the first violation.
pub fn check_cover(
    relation: &Relation,
    fds: &[Fd],
    epsilon: f64,
    threads: usize,
) -> Result<(), String> {
    let chunk = fds.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = fds
            .chunks(chunk)
            .map(|part| s.spawn(move || check_part(relation, part, epsilon)))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("oracle check thread panicked"))
    })
}

fn check_part(relation: &Relation, fds: &[Fd], epsilon: f64) -> Result<(), String> {
    let n = relation.num_rows() as f64;
    let holds = |fd: Fd| {
        if epsilon == 0.0 {
            fd_holds(relation, fd.lhs, fd.rhs)
        } else {
            n == 0.0 || fd_g3_rows(relation, fd.lhs, fd.rhs) as f64 / n <= epsilon
        }
    };
    let names = relation.schema().names();
    for &fd in fds {
        if fd.lhs.contains(fd.rhs) {
            return Err(format!("trivial: {}", fd.display_with(names)));
        }
        if !holds(fd) {
            return Err(format!("does not hold: {}", fd.display_with(names)));
        }
        for b in fd.lhs.iter() {
            if holds(Fd::new(fd.lhs.without(b), fd.rhs)) {
                return Err(format!("not minimal: {}", fd.display_with(names)));
            }
        }
    }
    Ok(())
}
