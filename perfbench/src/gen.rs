//! Seeded input generators. Every input the benchmark feeds the program is
//! a pure function of the run's `--seed` (and, for repeated rounds, the
//! round number), so the same seed always replays the same inputs.
//!
//! The generators carry their own SplitMix64 stream instead of borrowing
//! one from the library: a program change must never change what the
//! benchmark asks of it.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `(seed, stream)`: distinct streams of one seed are
    /// independent, so e.g. round 3's queries do not depend on how many
    /// values round 2 drew.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by the multiply-shift reduction.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stream tags, one per generator, so no two generators share draws.
const AXES: u64 = 1;
const RANKS: u64 = 2;
const QUERIES: u64 = 3;
const DAMAGE: u64 = 4;
const FUZZ: u64 = 5;

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// The seeded order of the campaign's attack and defense axes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisOrder {
    pub attacks: Vec<usize>,
    pub defenses: Vec<usize>,
}

pub fn axis_order(seed: u64, attacks: usize, defenses: usize) -> AxisOrder {
    let mut rng = Rng::new(seed, AXES);
    AxisOrder {
        attacks: permutation(&mut rng, attacks),
        defenses: permutation(&mut rng, defenses),
    }
}

/// The fuzz seeds the timed rounds cycle through, starting at the seed
/// the discovery tests pin.
pub const FUZZ_POOL: std::ops::Range<u64> = 42..50;

/// The fuzz seed of timed round `round`. Fuzzing work differs from fuzz
/// seed to fuzz seed by about a fifth, so every run cycles through the
/// same pool of fuzz seeds, in an order of its own: runs of different
/// seeds then measure the same work.
pub fn fuzz_seed(seed: u64, round: u64) -> u64 {
    let pool: Vec<u64> = FUZZ_POOL.collect();
    let order = permutation(&mut Rng::new(seed, FUZZ), pool.len());
    pool[order[round as usize % pool.len()]]
}

/// Zipf(1) over ranks `0..n`: rank `r` is drawn with weight `1 / (r + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / (r + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One query of the mix: a grid cell (answered from the ingested matrix)
/// or an off-grid cell (simulated on its first query, memoised after).
/// The index enumerates the key space, see `query::KeySpace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    Grid(usize),
    OffGrid(usize),
}

/// One in `OFF_GRID_ONE_IN` queries asks for an off-grid cell.
pub const OFF_GRID_ONE_IN: usize = 10;

/// The query stream of round `round`: `len` targets over `keys` grid keys
/// and `keys` off-grid keys. Both key spaces are Zipf-distributed; which
/// key holds which popularity rank is fixed per seed (the same hot cells
/// in every round), while the draws differ per round.
pub fn query_stream(seed: u64, round: u64, keys: usize, len: usize) -> Vec<Target> {
    let mut ranks = Rng::new(seed, RANKS);
    let grid_rank = permutation(&mut ranks, keys);
    let off_rank = permutation(&mut ranks, keys);
    let zipf = Zipf::new(keys);
    let mut rng = Rng::new(seed, QUERIES ^ (round << 8));
    (0..len)
        .map(|_| {
            let off = rng.below(OFF_GRID_ONE_IN) == 0;
            let rank = zipf.sample(&mut rng);
            if off {
                Target::OffGrid(off_rank[rank])
            } else {
                Target::Grid(grid_rank[rank])
            }
        })
        .collect()
}

/// How one checkpoint chunk is damaged before a resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Damage {
    pub chunk: usize,
    /// Truncate the file to half its length instead of deleting it.
    pub truncate: bool,
}

/// `count` distinct chunks of `0..chunks`, in index order, each deleted or
/// truncated by a coin flip — the damage of resume round `round`.
pub fn damage(seed: u64, round: u64, chunks: usize, count: usize) -> Vec<Damage> {
    let mut rng = Rng::new(seed, DAMAGE ^ (round << 8));
    let mut picked = permutation(&mut rng, chunks);
    picked.truncate(count.min(chunks));
    picked.sort_unstable();
    picked
        .into_iter()
        .map(|chunk| Damage {
            chunk,
            truncate: rng.below(2) == 1,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_order_repeats_per_seed_and_differs_across_seeds() {
        let a = axis_order(7, 22, 30);
        assert_eq!(a, axis_order(7, 22, 30));
        assert_ne!(a, axis_order(8, 22, 30));
        let mut sorted = a.attacks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..22).collect::<Vec<_>>());
        let mut sorted = a.defenses.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn query_stream_repeats_per_seed_and_differs_across_seeds_and_rounds() {
        let s = query_stream(7, 0, 3410, 5000);
        assert_eq!(s, query_stream(7, 0, 3410, 5000));
        assert_ne!(s, query_stream(8, 0, 3410, 5000));
        assert_ne!(s, query_stream(7, 1, 3410, 5000));
    }

    #[test]
    fn query_stream_is_about_one_tenth_off_grid_and_skewed() {
        let s = query_stream(3, 0, 3410, 50_000);
        let off = s.iter().filter(|t| matches!(t, Target::OffGrid(_))).count();
        assert!((4_000..6_000).contains(&off), "off-grid queries: {off}");
        let mut distinct: Vec<Target> = s.clone();
        distinct.sort_unstable_by_key(|t| match t {
            Target::Grid(k) => (0, *k),
            Target::OffGrid(k) => (1, *k),
        });
        distinct.dedup();
        assert!(distinct.len() < s.len() / 4, "Zipf keys repeat");
        assert!(s.iter().all(|t| match t {
            Target::Grid(k) | Target::OffGrid(k) => *k < 3410,
        }));
    }

    #[test]
    fn damage_repeats_per_seed_and_differs_across_seeds_and_rounds() {
        let d = damage(7, 0, 214, 8);
        assert_eq!(d, damage(7, 0, 214, 8));
        assert_ne!(d, damage(8, 0, 214, 8));
        assert_ne!(d, damage(7, 1, 214, 8));
        assert_eq!(d.len(), 8);
        assert!(d.windows(2).all(|w| w[0].chunk < w[1].chunk));
        assert!(d.iter().all(|x| x.chunk < 214));
    }

    #[test]
    fn fuzz_seeds_cycle_through_the_pool_in_a_seeded_order() {
        let order = |seed| (0..8).map(|r| fuzz_seed(seed, r)).collect::<Vec<_>>();
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut pool = order(7);
        pool.sort_unstable();
        assert_eq!(pool, FUZZ_POOL.collect::<Vec<_>>());
        assert_eq!(fuzz_seed(7, 3), fuzz_seed(7, 11));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100);
        let mut rng = Rng::new(1, 0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }
}
