//! Known-bad: a recursive enumeration that never sees a Ticker or
//! Cancellation. Each level loops over `n` values, so the calls grow as
//! n^k for k symbols: a loop in all but name, unbounded by any budget.

/// Calls `f` on every map of `k` symbols into `0..n`; `f` returns `true`
/// to stop.
pub fn for_each_map(k: usize, n: usize, f: &mut impl FnMut(&[usize]) -> bool) -> bool {
    let mut map = vec![0usize; k];

    fn rec(map: &mut Vec<usize>, sym: usize, n: usize, f: &mut impl FnMut(&[usize]) -> bool) -> bool {
        if sym == map.len() {
            return f(map);
        }
        for v in 0..n {
            map[sym] = v;
            if rec(map, sym + 1, n, f) {
                return true;
            }
        }
        false
    }
    rec(&mut map, 0, n, f)
}
