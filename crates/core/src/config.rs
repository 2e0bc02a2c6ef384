//! SimPush configuration and derived error parameters.

/// How the maximum attention level `L` is determined (paper Algorithm 2,
/// lines 1–8). Both modes run the same push loop — see the
/// [`source_push`](crate::source_push) module docs — and differ only in how
/// many in-edges it may scan before it has to sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelDetection {
    /// Push exactly within an edge budget of an eighth of the walk budget;
    /// past it, sample residual √c-walks from the last exact frontier and
    /// take the deepest level where some node's visit count crosses the
    /// detection threshold (the paper's algorithm applied to the unresolved
    /// part of the walk tree; guarantees hold with probability `1 − δ`).
    MonteCarlo,
    /// No edge budget: push until no deeper node can reach `ε_h` and derive
    /// attention sets exactly. Slower on hub frontiers, but the `ε` bound
    /// becomes deterministic — used by the test-suite oracles and available
    /// to latency-insensitive callers.
    Exact,
}

/// Full SimPush configuration.
///
/// Construct with [`Config::new`] and override fields as needed; every field
/// is public because experiment grids sweep them.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// SimRank decay factor `c ∈ (0, 1)`; the paper (and all baselines) fix
    /// `0.6`.
    pub c: f64,
    /// Absolute error budget `ε` of Definition 1.
    pub epsilon: f64,
    /// Failure probability `δ` of Definition 1.
    pub delta: f64,
    /// Level-detection strategy.
    pub level_detection: LevelDetection,
    /// Master seed for the sampling stage.
    pub seed: u64,
}

impl Config {
    /// Standard configuration: decay `c = 0.6`, `δ = 10⁻⁴` (the paper's
    /// experimental settings), Monte-Carlo level detection with the Chernoff
    /// budget.
    pub fn new(epsilon: f64) -> Self {
        let cfg = Self {
            c: 0.6,
            epsilon,
            delta: 1e-4,
            level_detection: LevelDetection::MonteCarlo,
            seed: 0x51AB_5EED,
        };
        cfg.validate();
        cfg
    }

    /// Exact-detection variant (deterministic error bound); primarily for
    /// tests and oracles.
    pub fn exact(epsilon: f64) -> Self {
        Self {
            level_detection: LevelDetection::Exact,
            ..Self::new(epsilon)
        }
    }

    /// Panics when any parameter is outside its valid range.
    pub fn validate(&self) {
        assert!(
            self.c > 0.0 && self.c < 1.0,
            "decay factor must lie in (0,1), got {}",
            self.c
        );
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "error budget must lie in (0,1), got {}",
            self.epsilon
        );
        assert!(
            self.delta > 0.0 && self.delta < 1.0,
            "failure probability must lie in (0,1), got {}",
            self.delta
        );
    }

    /// `√c`.
    #[inline]
    pub fn sqrt_c(&self) -> f64 {
        self.c.sqrt()
    }

    /// The push/attention threshold `ε_h = (1−√c)/(3√c) · ε` (paper Lemma 4:
    /// with this choice the three `√c·ε_h/(1−√c)` loss terms sum to `ε`).
    #[inline]
    pub fn eps_h(&self) -> f64 {
        let sc = self.sqrt_c();
        (1.0 - sc) / (3.0 * sc) * self.epsilon
    }

    /// Maximum possible attention level `L* = ⌊log_{1/√c}(1/ε_h)⌋` (paper
    /// Lemma 2: beyond `L*` every hitting probability is below `ε_h`).
    pub fn l_star(&self) -> usize {
        let eps_h = self.eps_h();
        if eps_h >= 1.0 {
            return 0;
        }
        let l = (1.0 / eps_h).ln() / (1.0 / self.sqrt_c()).ln();
        l.floor() as usize
    }

    /// Upper bound on the number of attention nodes,
    /// `⌊√c / ((1−√c)·ε_h)⌋` (paper Lemma 2).
    pub fn max_attention_nodes(&self) -> usize {
        let sc = self.sqrt_c();
        (sc / ((1.0 - sc) * self.eps_h())).floor() as usize
    }

    /// The Monte-Carlo level-detection walk budget
    /// `R = 8·ln(1/((1−√c)·ε_h·δ))/ε_h`: the number of √c-walks a detector
    /// drawing all of them from the query node needs. Source-Push scans up
    /// to `R / 8` in-edges exactly first and draws only
    /// `≈ R × (mass on its last exact frontier)` residual walks if that was
    /// not enough (see the [`source_push`](crate::source_push) module docs).
    ///
    /// `R` is sufficient for the one-sided detection event the algorithm
    /// actually needs (multiplicative Chernoff lower tail: a node with
    /// `h ≥ ε_h` is counted `≥ ε_h·R/2` times except with probability
    /// `≤ exp(−R·ε_h/8) ≤ (1−√c)·ε_h·δ`; union-bounding over the
    /// `≤ √c/((1−√c)·ε_h)` attention nodes gives total failure `≤ δ`), and
    /// it reproduces the realtime latencies the paper reports. For
    /// reference, the paper states the Hoeffding count
    /// `2·ln(1/((1−√c)·ε_h·δ))/ε_h²` (additive `ε_h/2` accuracy on every
    /// hitting probability) — orders of magnitude more walks at small `ε`.
    pub fn num_detection_walks(&self) -> usize {
        let sc = self.sqrt_c();
        let eps_h = self.eps_h();
        let log_term = (1.0 / ((1.0 - sc) * eps_h * self.delta)).ln();
        ((8.0 * log_term / eps_h).ceil() as usize).max(1)
    }

    /// Visit-count threshold for declaring a level populated: a node with
    /// `h ≥ ε_h` is expected to be visited `ε_h·R` times, and the budget
    /// analysis uses the halved threshold `ε_h·R/2`.
    pub fn detection_threshold(&self, num_walks: usize) -> u32 {
        ((self.eps_h() * num_walks as f64 / 2.0).ceil() as u32).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_parameters_match_hand_calculation() {
        let cfg = Config::new(0.02);
        // √0.6 = 0.774596..., ε_h = (1−√c)/(3√c)·ε ≈ 0.097002·ε
        let eps_h = cfg.eps_h();
        assert!((eps_h - 0.097_002 * 0.02).abs() < 1e-6, "eps_h {eps_h}");
        // L* = ⌊ln(1/ε_h)/ln(1/√c)⌋ = ⌊6.2451/0.25541⌋ = 24
        assert_eq!(cfg.l_star(), 24);
        assert!(cfg.max_attention_nodes() > 1000);
    }

    #[test]
    fn chernoff_budget_is_in_the_tens_of_thousands_at_the_default_epsilon() {
        let rc = Config::new(0.02).num_detection_walks();
        assert!((60_000..90_000).contains(&rc), "chernoff walks {rc}");
    }

    #[test]
    fn detection_threshold_is_half_the_expectation() {
        let cfg = Config::new(0.02);
        let r = cfg.num_detection_walks();
        let t = cfg.detection_threshold(r);
        let expect = cfg.eps_h() * r as f64;
        assert!((t as f64 - expect / 2.0).abs() <= 1.0);
        assert!(cfg.detection_threshold(0) >= 1, "threshold never zero");
    }

    #[test]
    fn l_star_grows_as_epsilon_shrinks() {
        assert!(Config::new(0.005).l_star() > Config::new(0.05).l_star());
    }

    #[test]
    #[should_panic(expected = "error budget")]
    fn rejects_bad_epsilon() {
        Config::new(0.0);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn rejects_bad_decay() {
        let cfg = Config {
            c: 1.0,
            ..Config::new(0.01)
        };
        cfg.validate();
    }

    #[test]
    fn exact_constructor_sets_mode() {
        assert_eq!(Config::exact(0.01).level_detection, LevelDetection::Exact);
    }
}
