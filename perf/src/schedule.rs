//! Seeded open-loop arrival schedules: Poisson arrivals, Zipf model popularity
//! and a fixed request mix. The same seed always yields the same arrivals.

use std::time::Duration;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential variate with the given rate (mean `1 / rate`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Derive an independent stream seed from a base seed and a label.
pub fn derive(seed: u64, label: u64) -> u64 {
    let mut r = Rng::new(seed ^ label.wrapping_mul(0xd6e8_feb8_6659_fd93));
    r.next_u64()
}

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `transform_view` of one view.
    View(usize),
    /// Full multi-view `transform` (the router's stitch path).
    Full,
}

/// The traffic mix a schedule draws from.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Number of served model names.
    pub models: usize,
    /// Zipf exponent of model popularity (rank 1 is model 0).
    pub zipf_s: f64,
    /// Share of full `transform` requests; the rest are `transform_view`.
    pub full_share: f64,
    /// Views per model (a view request picks one uniformly).
    pub views: usize,
    /// Distinct pre-built input blocks per (model, view).
    pub blocks: usize,
}

impl Mix {
    /// Request slots per model: one per view, plus one for the full
    /// transform when the mix sends any.
    fn slots(&self) -> usize {
        self.views + usize::from(self.full_share > 0.0)
    }

    /// Number of distinct request templates: slots per model times models
    /// times input blocks.
    pub fn templates(&self) -> usize {
        self.models * self.slots() * self.blocks
    }

    /// Template index of `(model, op, block)`.
    pub fn template(&self, model: usize, op: Op, block: usize) -> usize {
        let slot = match op {
            Op::View(v) => v,
            Op::Full => self.views,
        };
        (model * self.slots() + slot) * self.blocks + block
    }

    /// Inverse of [`Mix::template`].
    pub fn decode(&self, template: usize) -> (usize, Op, usize) {
        let block = template % self.blocks;
        let rest = template / self.blocks;
        let slot = rest % self.slots();
        let model = rest / self.slots();
        let op = if slot == self.views {
            Op::Full
        } else {
            Op::View(slot)
        };
        (model, op, block)
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the start of the step at which the request is due.
    pub at: Duration,
    /// Request template index (see [`Mix::template`]).
    pub template: usize,
}

/// Cumulative Zipf weights over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Poisson arrivals at `rate` per second over `duration`, each drawing a model
/// (Zipf), an op (mix) and an input block, all from `seed`.
pub fn poisson(seed: u64, rate: f64, duration: Duration, mix: &Mix) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let cdf = zipf_cdf(mix.models, mix.zipf_s);
    let horizon = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * horizon * 1.1) as usize + 16);
    loop {
        t += rng.exponential(rate);
        if t >= horizon {
            break;
        }
        let u = rng.unit();
        let model = cdf.partition_point(|&c| c < u).min(mix.models - 1);
        let op = if rng.unit() < mix.full_share {
            Op::Full
        } else {
            Op::View(rng.below(mix.views))
        };
        let block = rng.below(mix.blocks);
        out.push(Arrival {
            at: Duration::from_secs_f64(t),
            template: mix.template(model, op, block),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            models: 16,
            zipf_s: 1.0,
            full_share: 0.3,
            views: 3,
            blocks: 8,
        }
    }

    #[test]
    fn same_seed_gives_same_arrivals_and_models() {
        let a = poisson(42, 500.0, Duration::from_secs(2), &mix());
        let b = poisson(42, 500.0, Duration::from_secs(2), &mix());
        assert_eq!(a, b);
        let c = poisson(43, 500.0, Duration::from_secs(2), &mix());
        assert_ne!(a, c);
    }

    #[test]
    fn rate_mix_and_popularity_match_the_request() {
        let m = mix();
        let a = poisson(7, 2000.0, Duration::from_secs(5), &m);
        let n = a.len() as f64;
        assert!((n / 5.0 - 2000.0).abs() < 100.0, "{n}");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        let full = a
            .iter()
            .filter(|x| m.decode(x.template).1 == Op::Full)
            .count() as f64;
        assert!((full / n - 0.3).abs() < 0.02, "{}", full / n);
        let mut per_model = vec![0usize; m.models];
        for x in &a {
            per_model[m.decode(x.template).0] += 1;
        }
        // Zipf(1) over 16: rank 1 gets ~29.6%, rank 2 about half of that.
        let top = per_model[0] as f64 / n;
        assert!((top - 0.296).abs() < 0.02, "{top}");
        assert!(per_model[0] > per_model[1] && per_model[1] > per_model[15]);
    }

    #[test]
    fn template_indices_round_trip() {
        let views_only = Mix {
            full_share: 0.0,
            ..mix()
        };
        assert_eq!(views_only.templates(), 16 * 3 * 8);
        for m in [mix(), views_only] {
            for t in 0..m.templates() {
                let (model, op, block) = m.decode(t);
                assert_eq!(m.template(model, op, block), t);
            }
        }
    }
}
