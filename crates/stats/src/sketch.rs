//! Streaming, mergeable aggregation state — the §5 short-term plane.
//!
//! The paper's short-term campaign pings ~3 M server pairs every 15 minutes
//! for a week (~2 B samples). Materializing that before computing per-pair
//! percentiles and diurnal signals is what this module removes: each type
//! here folds samples one at a time into *fixed-size* state and merges
//! deterministically, so a campaign's memory is proportional to the number
//! of pairs, never to the number of samples.
//!
//! * [`QuantileSketch`] — a mergeable centroid sketch (t-digest-style, with
//!   a uniform weight cap instead of a scale function) with an exact
//!   small-N mode; quantile estimates carry a provable rank-error bound,
//! * [`StreamingMoments`] — Welford mean/variance with the parallel
//!   (Chan et al.) merge,
//! * [`DiurnalProfile`] — fixed time-of-day ring bins (§5.2 busy/quiet
//!   structure),
//! * [`FilledSpectrum`] — a streamed single-band DFT reproducing
//!   [`crate::fft::diurnal_psd_ratio`] over the last-value-hold filled
//!   series, without ever holding the series.
//!
//! Everything is NaN-filtering (a NaN sample is a lost slot, consistent
//! with the rest of `s2s-stats`), deterministic for a fixed fold/merge
//! order, and bit-exactly serializable through `encode`/`decode` (the
//! campaign checkpoint format).

use crate::percentile::percentile_sorted;

/// Default centroid capacity of a [`QuantileSketch`] (what the streamed
/// per-pair profiles use).
pub const DEFAULT_SKETCH_CAPACITY: usize = 256;

/// Default exact-mode cap of a [`QuantileSketch`] (what the streamed
/// per-pair profiles use).
pub const DEFAULT_SKETCH_EXACT: usize = 128;

// ---------------------------------------------------------------------------
// Bit-exact f64 tokens (the encode/decode wire format)
// ---------------------------------------------------------------------------

fn f64_token(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64_token(tok: &str) -> Result<f64, String> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 token {tok:?}: {e}"))
}

fn parse_usize_token(tok: &str) -> Result<usize, String> {
    tok.parse::<usize>().map_err(|e| format!("bad integer token {tok:?}: {e}"))
}

fn parse_u64_token(tok: &str) -> Result<u64, String> {
    tok.parse::<u64>().map_err(|e| format!("bad integer token {tok:?}: {e}"))
}

fn next_token<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<&'a str, String> {
    it.next().ok_or_else(|| format!("truncated sketch encoding: missing {what}"))
}

// ---------------------------------------------------------------------------
// QuantileSketch
// ---------------------------------------------------------------------------

/// A mergeable quantile sketch with an exact small-N mode.
///
/// Up to `exact_cap` samples are kept verbatim and quantiles are *exact*
/// (identical to [`crate::percentile::percentile_sorted`] on the sorted
/// survivors). Past that the sketch compresses into weighted centroids,
/// never holding more than `~2 × capacity` of them: at every compression
/// adjacent centroids are greedily combined under a uniform weight cap of
/// `ceil(count / capacity)`.
///
/// **Rank-error bound.** Every centroid's weight is at most
/// `cap = ceil(count / capacity)` (caps only grow, so earlier compressions
/// obey later bounds). The quantile estimator interpolates linearly through
/// the centroid means placed at their mid-ranks, so an estimate for rank
/// `r` lies between the true order statistics at ranks `r ± (2·cap + 1)`.
/// The property tests pin exactly this bound.
///
/// Operations are deterministic: folding the same values in the same order
/// (and merging in the same order) reproduces the sketch bit for bit,
/// regardless of thread count — shards own disjoint pairs and merge in
/// fixed pair order.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantileSketch {
    capacity: usize,
    exact_cap: usize,
    count: u64,
    min: f64,
    max: f64,
    /// Exact-mode storage, insertion order (sorted on demand).
    exact: Vec<f64>,
    /// Compressed-mode centroids `(mean, weight)`, sorted by mean.
    centroids: Vec<(f64, u64)>,
    /// Compressed-mode insert buffer, flushed at `capacity` points.
    buffer: Vec<f64>,
    compressed: bool,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// A sketch with the default shape
    /// ([`DEFAULT_SKETCH_CAPACITY`] centroids, [`DEFAULT_SKETCH_EXACT`]
    /// exact samples).
    pub fn new() -> QuantileSketch {
        QuantileSketch::with_shape(DEFAULT_SKETCH_CAPACITY, DEFAULT_SKETCH_EXACT)
    }

    /// A sketch with an explicit shape. `capacity` is clamped to ≥ 8 (the
    /// error bound `ceil(n / capacity)` is useless below that).
    pub fn with_shape(capacity: usize, exact_cap: usize) -> QuantileSketch {
        QuantileSketch {
            capacity: capacity.max(8),
            exact_cap,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            exact: Vec::new(),
            centroids: Vec::new(),
            buffer: Vec::new(),
            compressed: false,
        }
    }

    /// Number of non-NaN samples folded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether quantiles are still exact (small-N mode).
    pub fn is_exact(&self) -> bool {
        !self.compressed
    }

    /// Smallest sample folded (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample folded (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The uniform per-centroid weight cap at the current count.
    fn weight_cap(&self) -> u64 {
        (self.count.max(1)).div_ceil(self.capacity as u64).max(1)
    }

    /// Folds one sample; NaN is ignored (a lost slot, not a value).
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if !self.compressed {
            self.exact.push(x);
            if self.exact.len() > self.exact_cap {
                self.switch_to_compressed();
            }
            return;
        }
        self.buffer.push(x);
        if self.buffer.len() >= self.capacity {
            self.compress();
        }
    }

    fn switch_to_compressed(&mut self) {
        self.compressed = true;
        self.buffer = std::mem::take(&mut self.exact);
        self.compress();
    }

    /// Merges the sorted insert buffer into the centroid list and greedily
    /// recombines adjacent centroids under the current weight cap.
    fn compress(&mut self) {
        let mut items: Vec<(f64, u64)> = self
            .centroids
            .drain(..)
            .chain(self.buffer.drain(..).map(|x| (x, 1)))
            .collect();
        items.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
        let cap = self.weight_cap();
        // Greedy merging yields at most 2·capacity + 1 centroids (adjacent
        // output pairs sum past the weight cap); allocating the bound up
        // front keeps every compression realloc-free and makes the resident
        // footprint deterministic — independent of how many samples have
        // streamed through.
        let mut out: Vec<(f64, u64)> = Vec::with_capacity(2 * self.capacity + 2);
        for (m, w) in items {
            match out.last_mut() {
                Some((lm, lw)) if *lw + w <= cap => {
                    // Weighted mean keeps the combined centroid inside the
                    // span of its members.
                    let tw = *lw + w;
                    *lm = (*lm * (*lw as f64) + m * (w as f64)) / tw as f64;
                    *lw = tw;
                }
                _ => out.push((m, w)),
            }
        }
        self.centroids = out;
    }

    /// Folds another sketch in. The result depends only on the two states
    /// and their order (deterministic for a fixed merge order).
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let other_items = other.items();
        if !self.compressed && !other.compressed && self.exact.len() + other.exact.len() <= self.exact_cap
        {
            self.exact.extend(other_items.into_iter().map(|(m, _)| m));
            return;
        }
        if !self.compressed {
            self.switch_to_compressed();
        }
        for (m, w) in other_items {
            if w == 1 {
                self.buffer.push(m);
            } else {
                self.centroids.push((m, w));
            }
        }
        self.compress();
    }

    /// Everything held, as `(mean, weight)` items (weight-1 for raw points).
    fn items(&self) -> Vec<(f64, u64)> {
        if self.compressed {
            self.centroids
                .iter()
                .copied()
                .chain(self.buffer.iter().map(|&x| (x, 1)))
                .collect()
        } else {
            self.exact.iter().map(|&x| (x, 1)).collect()
        }
    }

    /// The quantile estimate for `q ∈ [0, 1]`; `None` when empty.
    ///
    /// In exact mode this is identical to
    /// `percentile_sorted(sorted_samples, q * 100)`; in compressed mode it
    /// interpolates through the centroid mid-ranks (see the type docs for
    /// the rank-error bound).
    ///
    /// # Panics
    /// Panics when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return None;
        }
        if !self.compressed {
            let mut sorted = self.exact.clone();
            sorted.sort_by(f64::total_cmp);
            return percentile_sorted(&sorted, q * 100.0);
        }
        let mut items = self.items();
        items.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
        // Piecewise-linear through (rank 0, min), every centroid at its
        // mid-rank, and (count-1, max).
        let target = q * (self.count - 1) as f64;
        let mut prev_rank = 0.0;
        let mut prev_val = self.min;
        let mut cum = 0u64;
        for &(m, w) in &items {
            let mid = cum as f64 + (w as f64 - 1.0) / 2.0;
            if target <= mid {
                let span = mid - prev_rank;
                if span <= 0.0 {
                    return Some(m);
                }
                let frac = (target - prev_rank) / span;
                return Some(prev_val + (m - prev_val) * frac);
            }
            prev_rank = mid;
            prev_val = m;
            cum += w;
        }
        let last_rank = (self.count - 1) as f64;
        let span = last_rank - prev_rank;
        if span <= 0.0 {
            return Some(self.max);
        }
        let frac = ((target - prev_rank) / span).min(1.0);
        Some(prev_val + (self.max - prev_val) * frac)
    }

    /// `quantile(hi) − quantile(lo)` — e.g. the §5.1 95th−5th spread.
    pub fn spread(&self, lo: f64, hi: f64) -> Option<f64> {
        Some(self.quantile(hi)? - self.quantile(lo)?)
    }

    /// Bytes resident in this sketch (capacities, not lengths — what the
    /// allocator actually holds).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.exact.capacity() * 8
            + self.buffer.capacity() * 8
            + self.centroids.capacity() * 16
    }

    /// Serializes to space-separated tokens; bit-exact round trip through
    /// [`QuantileSketch::decode`].
    pub fn encode(&self) -> String {
        let mut s = format!(
            "{} {} {} {} {} {}",
            self.capacity,
            self.exact_cap,
            self.count,
            f64_token(self.min),
            f64_token(self.max),
            u8::from(self.compressed),
        );
        let items = self.items();
        s.push_str(&format!(" {}", items.len()));
        for (m, w) in items {
            s.push_str(&format!(" {}:{}", f64_token(m), w));
        }
        s
    }

    /// Parses an [`QuantileSketch::encode`] string.
    pub fn decode(text: &str) -> Result<QuantileSketch, String> {
        let mut it = text.split_whitespace();
        let capacity = parse_usize_token(next_token(&mut it, "capacity")?)?;
        let exact_cap = parse_usize_token(next_token(&mut it, "exact_cap")?)?;
        let count = parse_u64_token(next_token(&mut it, "count")?)?;
        let min = parse_f64_token(next_token(&mut it, "min")?)?;
        let max = parse_f64_token(next_token(&mut it, "max")?)?;
        let compressed = next_token(&mut it, "mode")? == "1";
        let n = parse_usize_token(next_token(&mut it, "item count")?)?;
        let mut sk = QuantileSketch::with_shape(capacity, exact_cap);
        sk.count = count;
        sk.min = min;
        sk.max = max;
        sk.compressed = compressed;
        for _ in 0..n {
            let tok = next_token(&mut it, "item")?;
            let (m, w) = tok
                .split_once(':')
                .ok_or_else(|| format!("bad centroid token {tok:?}"))?;
            let m = parse_f64_token(m)?;
            let w = parse_u64_token(w)?;
            if compressed {
                if w == 1 {
                    sk.buffer.push(m);
                } else {
                    sk.centroids.push((m, w));
                }
            } else {
                sk.exact.push(m);
            }
        }
        Ok(sk)
    }
}

// ---------------------------------------------------------------------------
// StreamingMoments
// ---------------------------------------------------------------------------

/// Streaming mean/variance (Welford), mergeable with the parallel combine
/// of Chan et al. Population variance, matching [`crate::percentile::stddev`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamingMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl StreamingMoments {
    /// A fresh accumulator.
    pub fn new() -> StreamingMoments {
        StreamingMoments::default()
    }

    /// Folds one sample; NaN is ignored.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Folds another accumulator in.
    pub fn merge(&mut self, other: &StreamingMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2
            + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.count = total;
    }

    /// Number of non-NaN samples folded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance; `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then_some((self.m2 / self.count as f64).max(0.0))
    }

    /// Population standard deviation; `None` when empty.
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Serializes to space-separated tokens (bit-exact round trip).
    pub fn encode(&self) -> String {
        format!("{} {} {}", self.count, f64_token(self.mean), f64_token(self.m2))
    }

    /// Parses an [`StreamingMoments::encode`] string.
    pub fn decode(text: &str) -> Result<StreamingMoments, String> {
        let mut it = text.split_whitespace();
        Ok(StreamingMoments {
            count: parse_u64_token(next_token(&mut it, "count")?)?,
            mean: parse_f64_token(next_token(&mut it, "mean")?)?,
            m2: parse_f64_token(next_token(&mut it, "m2")?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// DiurnalProfile
// ---------------------------------------------------------------------------

/// Fixed time-of-day ring bins: per bin, the count and sum of the samples
/// that landed there. The §5.2 busy/quiet structure of a pair, in
/// `O(bins)` memory regardless of campaign length.
#[derive(Clone, Debug, PartialEq)]
pub struct DiurnalProfile {
    counts: Vec<u64>,
    sums: Vec<f64>,
}

impl DiurnalProfile {
    /// A profile with `bins` time-of-day bins (e.g. 24 for hourly).
    ///
    /// # Panics
    /// Panics when `bins` is zero.
    pub fn new(bins: usize) -> DiurnalProfile {
        assert!(bins > 0, "a diurnal profile needs at least one bin");
        DiurnalProfile { counts: vec![0; bins], sums: vec![0.0; bins] }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Folds one sample into the bin of day-slot `slot` (`slot % bins`
    /// wraps whole days); NaN is ignored.
    pub fn fold_slot(&mut self, slot: u64, x: f64) {
        if x.is_nan() {
            return;
        }
        let b = (slot % self.counts.len() as u64) as usize;
        self.counts[b] += 1;
        self.sums[b] += x;
    }

    /// Folds another profile in.
    ///
    /// # Panics
    /// Panics when the bin counts differ.
    pub fn merge(&mut self, other: &DiurnalProfile) {
        assert_eq!(self.bins(), other.bins(), "merging profiles with different bins");
        for (c, oc) in self.counts.iter_mut().zip(&other.counts) {
            *c += oc;
        }
        for (s, os) in self.sums.iter_mut().zip(&other.sums) {
            *s += os;
        }
    }

    /// The mean of bin `i`; `None` when the bin saw no samples.
    pub fn bin_mean(&self, i: usize) -> Option<f64> {
        (self.counts[i] > 0).then(|| self.sums[i] / self.counts[i] as f64)
    }

    /// Every bin's mean, in bin order.
    pub fn means(&self) -> Vec<Option<f64>> {
        (0..self.bins()).map(|i| self.bin_mean(i)).collect()
    }

    /// The bin with the highest mean (first such bin on ties); `None`
    /// when no bin has data.
    pub fn peak_bin(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.bins() {
            if let Some(m) = self.bin_mean(i) {
                if best.map(|(_, bm)| m > bm).unwrap_or(true) {
                    best = Some((i, m));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Peak bin mean minus quietest bin mean (over bins with data);
    /// `None` when no bin has data.
    pub fn amplitude(&self) -> Option<f64> {
        let means: Vec<f64> = (0..self.bins()).filter_map(|i| self.bin_mean(i)).collect();
        if means.is_empty() {
            return None;
        }
        let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
        Some(hi - lo)
    }

    /// Total samples across all bins.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Bytes resident in this profile.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.counts.capacity() * 8 + self.sums.capacity() * 8
    }

    /// Serializes to space-separated tokens (bit-exact round trip).
    pub fn encode(&self) -> String {
        let mut s = format!("{}", self.bins());
        for (&c, &v) in self.counts.iter().zip(&self.sums) {
            s.push_str(&format!(" {}:{}", c, f64_token(v)));
        }
        s
    }

    /// Parses a [`DiurnalProfile::encode`] string.
    pub fn decode(text: &str) -> Result<DiurnalProfile, String> {
        let mut it = text.split_whitespace();
        let bins = parse_usize_token(next_token(&mut it, "bins")?)?;
        if bins == 0 {
            return Err("a diurnal profile needs at least one bin".to_string());
        }
        let mut p = DiurnalProfile::new(bins);
        for i in 0..bins {
            let tok = next_token(&mut it, "bin")?;
            let (c, s) =
                tok.split_once(':').ok_or_else(|| format!("bad bin token {tok:?}"))?;
            p.counts[i] = parse_u64_token(c)?;
            p.sums[i] = parse_f64_token(s)?;
        }
        Ok(p)
    }
}

// ---------------------------------------------------------------------------
// FilledSpectrum
// ---------------------------------------------------------------------------

/// One tracked DFT bin: a phase rotor plus value-weighted and unweighted
/// (for mean removal) accumulated sums.
#[derive(Clone, Debug, PartialEq)]
struct TrackedBin {
    k: usize,
    step_re: f64,
    step_im: f64,
    cur_re: f64,
    cur_im: f64,
    sum_re: f64,
    sum_im: f64,
    c_re: f64,
    c_im: f64,
}

impl TrackedBin {
    fn new(k: usize, padded_len: usize) -> TrackedBin {
        let ang = -2.0 * std::f64::consts::PI * k as f64 / padded_len as f64;
        TrackedBin {
            k,
            step_re: ang.cos(),
            step_im: ang.sin(),
            cur_re: 1.0,
            cur_im: 0.0,
            sum_re: 0.0,
            sum_im: 0.0,
            c_re: 0.0,
            c_im: 0.0,
        }
    }

    fn fold(&mut self, x: f64) {
        self.sum_re += x * self.cur_re;
        self.sum_im += x * self.cur_im;
        self.c_re += self.cur_re;
        self.c_im += self.cur_im;
        let re = self.cur_re * self.step_re - self.cur_im * self.step_im;
        let im = self.cur_re * self.step_im + self.cur_im * self.step_re;
        self.cur_re = re;
        self.cur_im = im;
    }

    /// `|X[k]|²` after mean removal: `X[k] = S_k − mean·C_k`.
    fn power(&self, mean: f64) -> f64 {
        let re = self.sum_re - mean * self.c_re;
        let im = self.sum_im - mean * self.c_im;
        re * re + im * im
    }
}

/// Streams the §5.1 diurnal-PSD-ratio computation.
///
/// [`crate::fft::diurnal_psd_ratio`] runs an FFT over the *filled* RTT
/// series (lost slots replaced by the last valid value, leading losses by
/// the first valid value — `PingTimeline::filled_rtts` in `s2s-probe`),
/// then compares the power in the bins around f = 1/day against the total
/// non-DC power. All of that is expressible without holding the series:
///
/// * the daily band is at most three DFT bins plus possibly Nyquist — each
///   a phase rotor and a complex sum,
/// * the total non-DC half-spectrum power follows from Parseval:
///   `Σ_{k=1..n/2} |X[k]|² = (n·Σ(xᵢ−mean)² + |X[n/2]|²) / 2`
///   (the DC bin is zero by construction), with `Σ(xᵢ−mean)²` kept by a
///   Welford accumulator and the Nyquist bin by an alternating sum,
/// * last-value-hold filling needs one remembered value; leading losses
///   are counted and back-filled the moment the first valid sample lands.
///
/// Feed every schedule slot in time order ([`FilledSpectrum::fold`], `None`
/// for a lost slot) — exactly `expected_len` of them — then read
/// [`FilledSpectrum::ratio`]. The result matches the FFT path up to
/// floating-point summation order.
#[derive(Clone, Debug, PartialEq)]
pub struct FilledSpectrum {
    expected_len: usize,
    samples_per_day: usize,
    padded_len: usize,
    /// Daily-band bins `k < n/2` (Nyquist handled by the alternating sum).
    tracked: Vec<TrackedBin>,
    /// Whether the daily band includes the Nyquist bin `n/2`.
    band_has_nyquist: bool,
    /// `Σ xᵢ·(−1)ⁱ` — the Nyquist bin before mean removal.
    nyq_sum: f64,
    idx: usize,
    leading_gap: usize,
    last: f64,
    any_valid: bool,
    /// Welford over the filled values (mean + Σ(x−mean)²).
    fmean: f64,
    fm2: f64,
}

impl FilledSpectrum {
    /// A spectrum accumulator for a schedule of `expected_len` slots at
    /// `samples_per_day` samples per day.
    ///
    /// # Panics
    /// Panics when `samples_per_day` is zero (mirrors
    /// [`crate::fft::diurnal_psd_ratio`]).
    pub fn new(expected_len: usize, samples_per_day: usize) -> FilledSpectrum {
        assert!(samples_per_day > 0, "samples_per_day must be positive");
        let padded_len = expected_len.next_power_of_two().max(1);
        let half = padded_len / 2;
        let day_bin = (padded_len as f64 / samples_per_day as f64).round() as usize;
        let mut tracked = Vec::new();
        let mut band_has_nyquist = false;
        // Mirrors diurnal_psd_ratio's band selection; when the band is
        // invalid (day_bin out of range) no bins are tracked and ratio()
        // yields None.
        if day_bin > 0 && day_bin <= half && expected_len >= 4 {
            let lo = day_bin.saturating_sub(1).max(1);
            let hi = (day_bin + 1).min(half);
            for k in lo..=hi {
                if k == half {
                    band_has_nyquist = true;
                } else {
                    tracked.push(TrackedBin::new(k, padded_len));
                }
            }
        }
        FilledSpectrum {
            expected_len,
            samples_per_day,
            padded_len,
            tracked,
            band_has_nyquist,
            nyq_sum: 0.0,
            idx: 0,
            leading_gap: 0,
            last: 0.0,
            any_valid: false,
            fmean: 0.0,
            fm2: 0.0,
        }
    }

    /// Slots folded so far (valid or lost).
    pub fn len(&self) -> usize {
        self.idx + self.leading_gap
    }

    /// Whether no slot has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds the next schedule slot, in time order; `None` is a lost slot.
    pub fn fold(&mut self, sample: Option<f64>) {
        match sample {
            Some(v) if !v.is_nan() => {
                if !self.any_valid {
                    // Leading losses take the first valid value.
                    for _ in 0..self.leading_gap {
                        self.fold_value(v);
                    }
                    self.leading_gap = 0;
                    self.any_valid = true;
                }
                self.last = v;
                self.fold_value(v);
            }
            _ => {
                if self.any_valid {
                    self.fold_value(self.last);
                } else {
                    self.leading_gap += 1;
                }
            }
        }
    }

    fn fold_value(&mut self, x: f64) {
        for bin in &mut self.tracked {
            bin.fold(x);
        }
        self.nyq_sum += if self.idx.is_multiple_of(2) { x } else { -x };
        self.idx += 1;
        let delta = x - self.fmean;
        self.fmean += delta / self.idx as f64;
        self.fm2 += delta * (x - self.fmean);
    }

    /// The diurnal PSD ratio, mirroring [`crate::fft::diurnal_psd_ratio`]
    /// over the filled series: `None` when no slot was valid, the series
    /// is shorter than two days, the daily bin is out of range, or there
    /// is no variance.
    pub fn ratio(&self) -> Option<f64> {
        if !self.any_valid {
            return None; // filled_rtts() is None
        }
        let len = self.len();
        if len < 2 * self.samples_per_day || len < 4 {
            return None;
        }
        debug_assert_eq!(
            len, self.expected_len,
            "FilledSpectrum folded {len} slots for an {}-slot schedule",
            self.expected_len
        );
        let half = self.padded_len / 2;
        let day_bin =
            (self.padded_len as f64 / self.samples_per_day as f64).round() as usize;
        if day_bin == 0 || day_bin > half {
            return None;
        }
        // Nyquist after mean removal: Σ(xᵢ−mean)(−1)ⁱ. The phase sum of
        // (−1)ⁱ over i < len is 1 for odd lengths, 0 for even.
        let c_nyq = if len % 2 == 1 { 1.0 } else { 0.0 };
        let x_nyq = self.nyq_sum - self.fmean * c_nyq;
        let nyq_power = x_nyq * x_nyq;
        // Parseval over the padded series (DC bin is zero): the half
        // spectrum 1..=n/2 carries half the energy plus half the Nyquist
        // bin again (Nyquist has no mirror).
        let total = (self.padded_len as f64 * self.fm2 + nyq_power) / 2.0;
        if total <= 0.0 {
            return None;
        }
        let mut diurnal: f64 =
            self.tracked.iter().map(|b| b.power(self.fmean)).sum();
        if self.band_has_nyquist {
            diurnal += nyq_power;
        }
        Some(diurnal / total)
    }

    /// Bytes resident in this accumulator.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.tracked.capacity() * std::mem::size_of::<TrackedBin>()
    }

    /// Serializes to space-separated tokens (bit-exact round trip).
    pub fn encode(&self) -> String {
        let mut s = format!(
            "{} {} {} {} {} {} {} {} {}",
            self.expected_len,
            self.samples_per_day,
            self.idx,
            self.leading_gap,
            u8::from(self.any_valid),
            f64_token(self.last),
            f64_token(self.nyq_sum),
            f64_token(self.fmean),
            f64_token(self.fm2),
        );
        for b in &self.tracked {
            s.push_str(&format!(
                " {}:{}:{}:{}:{}:{}:{}",
                b.k,
                f64_token(b.cur_re),
                f64_token(b.cur_im),
                f64_token(b.sum_re),
                f64_token(b.sum_im),
                f64_token(b.c_re),
                f64_token(b.c_im),
            ));
        }
        s
    }

    /// Parses a [`FilledSpectrum::encode`] string.
    pub fn decode(text: &str) -> Result<FilledSpectrum, String> {
        let mut it = text.split_whitespace();
        let expected_len = parse_usize_token(next_token(&mut it, "expected_len")?)?;
        let samples_per_day = parse_usize_token(next_token(&mut it, "samples_per_day")?)?;
        if samples_per_day == 0 {
            return Err("samples_per_day must be positive".to_string());
        }
        let mut sp = FilledSpectrum::new(expected_len, samples_per_day);
        sp.idx = parse_usize_token(next_token(&mut it, "idx")?)?;
        sp.leading_gap = parse_usize_token(next_token(&mut it, "leading_gap")?)?;
        sp.any_valid = next_token(&mut it, "any_valid")? == "1";
        sp.last = parse_f64_token(next_token(&mut it, "last")?)?;
        sp.nyq_sum = parse_f64_token(next_token(&mut it, "nyq_sum")?)?;
        sp.fmean = parse_f64_token(next_token(&mut it, "fmean")?)?;
        sp.fm2 = parse_f64_token(next_token(&mut it, "fm2")?)?;
        for b in &mut sp.tracked {
            let tok = next_token(&mut it, "tracked bin")?;
            let parts: Vec<&str> = tok.split(':').collect();
            if parts.len() != 7 {
                return Err(format!("bad tracked-bin token {tok:?}"));
            }
            let k = parse_usize_token(parts[0])?;
            if k != b.k {
                return Err(format!("tracked bin {k} does not match schedule bin {}", b.k));
            }
            b.cur_re = parse_f64_token(parts[1])?;
            b.cur_im = parse_f64_token(parts[2])?;
            b.sum_re = parse_f64_token(parts[3])?;
            b.sum_im = parse_f64_token(parts[4])?;
            b.c_re = parse_f64_token(parts[5])?;
            b.c_im = parse_f64_token(parts[6])?;
        }
        Ok(sp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::diurnal_psd_ratio;
    use crate::percentile::{mean as exact_mean, stddev as exact_stddev};
    use proptest::prelude::*;

    fn sorted_clean(data: &[f64]) -> Vec<f64> {
        let mut v: Vec<f64> = data.iter().copied().filter(|x| !x.is_nan()).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn sketch_of(data: &[f64], capacity: usize, exact_cap: usize) -> QuantileSketch {
        let mut sk = QuantileSketch::with_shape(capacity, exact_cap);
        for &x in data {
            sk.push(x);
        }
        sk
    }

    /// The provable rank-error envelope: the estimate at `q` must lie
    /// between the exact order statistics at ranks `r ± (2·cap + 1)`.
    fn assert_within_rank_bound(sk: &QuantileSketch, sorted: &[f64], q: f64) {
        let est = sk.quantile(q).unwrap();
        let n = sorted.len();
        let cap = (n as u64).div_ceil(sk.capacity as u64).max(1) as f64;
        let slack = 2.0 * cap + 1.0;
        let r = q * (n - 1) as f64;
        let lo = ((r - slack).floor().max(0.0)) as usize;
        let hi = ((r + slack).ceil() as usize).min(n - 1);
        let eps = 1e-9 * (1.0 + est.abs());
        assert!(
            est >= sorted[lo] - eps && est <= sorted[hi] + eps,
            "q={q}: estimate {est} outside [{}, {}] (ranks {lo}..={hi} of {n})",
            sorted[lo],
            sorted[hi]
        );
    }

    #[test]
    fn exact_mode_matches_percentile_sorted() {
        let data: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let sk = sketch_of(&data, 256, 128);
        assert!(sk.is_exact());
        let sorted = sorted_clean(&data);
        for q in [0.0, 0.05, 0.5, 0.95, 1.0] {
            assert_eq!(sk.quantile(q), percentile_sorted(&sorted, q * 100.0));
        }
    }

    #[test]
    fn compressed_mode_bounds_memory_and_rank_error() {
        let n = 50_000;
        let data: Vec<f64> = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                (h >> 11) as f64 / (1u64 << 53) as f64 * 100.0
            })
            .collect();
        let sk = sketch_of(&data, 128, 64);
        assert!(!sk.is_exact());
        assert!(
            sk.centroids.len() <= 2 * sk.capacity + 1,
            "{} centroids for capacity {}",
            sk.centroids.len(),
            sk.capacity
        );
        // Resident bytes stay bounded regardless of n.
        assert!(sk.memory_bytes() < 64 * 1024, "{} bytes", sk.memory_bytes());
        let sorted = sorted_clean(&data);
        for q in [0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            assert_within_rank_bound(&sk, &sorted, q);
        }
    }

    #[test]
    fn sketch_nan_is_filtered_like_the_exact_toolkit() {
        let data = [1.0, f64::NAN, 3.0, 2.0, f64::NAN];
        let sk = sketch_of(&data, 64, 8);
        assert_eq!(sk.count(), 3);
        assert_eq!(sk.quantile(0.5), Some(2.0));
        let all_nan = sketch_of(&[f64::NAN, f64::NAN], 64, 8);
        assert_eq!(all_nan.quantile(0.5), None);
        assert_eq!(all_nan.min(), None);
    }

    #[test]
    fn merge_equals_merging_counts_and_respects_bounds() {
        let a: Vec<f64> = (0..700).map(|i| (i % 97) as f64).collect();
        let b: Vec<f64> = (0..900).map(|i| 50.0 + (i % 53) as f64).collect();
        let mut sa = sketch_of(&a, 64, 32);
        let sb = sketch_of(&b, 64, 32);
        sa.merge(&sb);
        assert_eq!(sa.count(), 1600);
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let sorted = sorted_clean(&all);
        assert_eq!(sa.min(), Some(sorted[0]));
        assert_eq!(sa.max(), Some(*sorted.last().unwrap()));
        for q in [0.05, 0.5, 0.95] {
            assert_within_rank_bound(&sa, &sorted, q);
        }
    }

    #[test]
    fn merge_of_small_exact_sketches_stays_exact() {
        let mut a = sketch_of(&[1.0, 2.0], 256, 128);
        let b = sketch_of(&[3.0, 4.0], 256, 128);
        a.merge(&b);
        assert!(a.is_exact());
        assert_eq!(a.quantile(0.5), Some(2.5));
    }

    #[test]
    fn merge_order_is_deterministic() {
        let chunks: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                (0..500)
                    .map(|i| {
                        let h = ((c * 1000 + i) as u64).wrapping_mul(0x9E3779B97F4A7C15);
                        (h >> 11) as f64 / (1u64 << 53) as f64 * 40.0
                    })
                    .collect()
            })
            .collect();
        let fold = || {
            let mut acc = QuantileSketch::with_shape(64, 32);
            for c in &chunks {
                let sk = sketch_of(c, 64, 32);
                acc.merge(&sk);
            }
            acc
        };
        let one = fold();
        let two = fold();
        assert_eq!(one, two, "same merge order must be bit-identical");
        assert_eq!(one.encode(), two.encode());
    }

    #[test]
    fn sketch_encode_round_trips() {
        for data in [
            Vec::new(),
            vec![5.0, 1.0, f64::NAN, 3.0],
            (0..2000).map(|i| (i % 211) as f64).collect::<Vec<_>>(),
        ] {
            let sk = sketch_of(&data, 32, 16);
            let rt = QuantileSketch::decode(&sk.encode()).unwrap();
            assert_eq!(sk, rt);
        }
        assert!(QuantileSketch::decode("3 2 1").is_err());
        assert!(QuantileSketch::decode("").is_err());
    }

    #[test]
    fn moments_match_exact_mean_and_stddev() {
        let data: Vec<f64> = (0..1000)
            .map(|i| 50.0 + ((i * 13) % 29) as f64 - 14.0)
            .chain([f64::NAN])
            .collect();
        let mut m = StreamingMoments::new();
        for &x in &data {
            m.push(x);
        }
        assert_eq!(m.count(), 1000);
        assert!((m.mean().unwrap() - exact_mean(&data).unwrap()).abs() < 1e-9);
        assert!((m.stddev().unwrap() - exact_stddev(&data).unwrap()).abs() < 1e-9);
        assert_eq!(StreamingMoments::new().mean(), None);
    }

    #[test]
    fn moments_merge_matches_single_pass() {
        let data: Vec<f64> = (0..801).map(|i| ((i * 31) % 157) as f64).collect();
        let mut whole = StreamingMoments::new();
        for &x in &data {
            whole.push(x);
        }
        let mut merged = StreamingMoments::new();
        for chunk in data.chunks(97) {
            let mut part = StreamingMoments::new();
            for &x in chunk {
                part.push(x);
            }
            merged.merge(&part);
        }
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((merged.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        let rt = StreamingMoments::decode(&merged.encode()).unwrap();
        assert_eq!(merged, rt);
    }

    #[test]
    fn diurnal_profile_bins_and_merges() {
        let mut p = DiurnalProfile::new(24);
        // Two days of hourly samples: hour h gets value h, twice.
        for day in 0..2u64 {
            for h in 0..24u64 {
                p.fold_slot(day * 24 + h, h as f64);
            }
        }
        p.fold_slot(3, f64::NAN); // ignored
        assert_eq!(p.count(), 48);
        assert_eq!(p.bin_mean(5), Some(5.0));
        assert_eq!(p.peak_bin(), Some(23));
        assert_eq!(p.amplitude(), Some(23.0));
        let mut q = DiurnalProfile::new(24);
        q.fold_slot(0, 100.0);
        p.merge(&q);
        assert_eq!(p.peak_bin(), Some(0));
        let rt = DiurnalProfile::decode(&p.encode()).unwrap();
        assert_eq!(p, rt);
        assert_eq!(DiurnalProfile::new(4).peak_bin(), None);
        assert_eq!(DiurnalProfile::new(4).amplitude(), None);
    }

    /// The streamed spectrum must agree with the FFT reference on the
    /// exact same filled series.
    fn filled_reference(rtts: &[Option<f64>]) -> Option<Vec<f64>> {
        let first = rtts.iter().copied().flatten().next()?;
        let mut last = first;
        Some(
            rtts.iter()
                .map(|r| {
                    if let Some(v) = r {
                        last = *v;
                    }
                    last
                })
                .collect(),
        )
    }

    fn spectrum_agrees(rtts: &[Option<f64>], spd: usize) {
        let mut sp = FilledSpectrum::new(rtts.len(), spd);
        for &r in rtts {
            sp.fold(r);
        }
        let streamed = sp.ratio();
        let exact = filled_reference(rtts).and_then(|f| diurnal_psd_ratio(&f, spd));
        match (streamed, exact) {
            (None, None) => {}
            (Some(s), Some(e)) => {
                assert!(
                    (s - e).abs() < 1e-6,
                    "streamed {s} vs exact {e} over {} slots",
                    rtts.len()
                );
            }
            other => panic!("streamed/exact disagree on presence: {other:?}"),
        }
    }

    fn diurnal_slots(n: usize, spd: usize, amp: f64, noise: f64) -> Vec<Option<f64>> {
        (0..n)
            .map(|i| {
                let phase = 2.0 * std::f64::consts::PI * i as f64 / spd as f64;
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let u = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                Some(50.0 + amp * phase.sin() + noise * u)
            })
            .collect()
    }

    #[test]
    fn spectrum_matches_fft_on_clean_and_gappy_series() {
        // 672 slots of 15-minute pings — the §5.1 shape (not a power of
        // two, so padding is exercised).
        let clean = diurnal_slots(672, 96, 15.0, 1.0);
        spectrum_agrees(&clean, 96);

        let mut gappy = clean.clone();
        for (i, slot) in gappy.iter_mut().enumerate() {
            if i % 7 == 3 || (100..130).contains(&i) {
                *slot = None;
            }
        }
        spectrum_agrees(&gappy, 96);

        // Leading losses take the first valid value.
        let mut leading = clean;
        for slot in leading.iter_mut().take(50) {
            *slot = None;
        }
        spectrum_agrees(&leading, 96);

        // Flat noise, weekly-period signal, and a power-of-two length.
        spectrum_agrees(&diurnal_slots(672, 96, 0.0, 5.0), 96);
        spectrum_agrees(&diurnal_slots(512, 96, 10.0, 2.0), 96);
        let weekly: Vec<Option<f64>> = (0..672)
            .map(|i| {
                Some(50.0 + 20.0 * (2.0 * std::f64::consts::PI * i as f64 / 672.0).sin())
            })
            .collect();
        spectrum_agrees(&weekly, 96);
    }

    #[test]
    fn spectrum_none_cases_mirror_the_fft_path() {
        // All lost: filled_rtts is None.
        let lost: Vec<Option<f64>> = vec![None; 672];
        spectrum_agrees(&lost, 96);
        // Shorter than two days.
        spectrum_agrees(&diurnal_slots(96, 96, 15.0, 1.0), 96);
        // Constant signal: no variance.
        let flat: Vec<Option<f64>> = vec![Some(42.0); 672];
        spectrum_agrees(&flat, 96);
    }

    #[test]
    fn spectrum_detects_at_trace_cadence_too() {
        // 3-hour samples: 8 per day, 40 days.
        spectrum_agrees(&diurnal_slots(320, 8, 12.0, 1.0), 8);
        spectrum_agrees(&diurnal_slots(320, 8, 0.0, 4.0), 8);
    }

    #[test]
    fn spectrum_encode_round_trips_mid_stream() {
        let slots = diurnal_slots(672, 96, 15.0, 2.0);
        let mut whole = FilledSpectrum::new(672, 96);
        let mut front = FilledSpectrum::new(672, 96);
        for &s in &slots[..300] {
            whole.fold(s);
            front.fold(s);
        }
        let mut resumed = FilledSpectrum::decode(&front.encode()).unwrap();
        assert_eq!(front, resumed);
        for &s in &slots[300..] {
            whole.fold(s);
            resumed.fold(s);
        }
        assert_eq!(whole, resumed, "resume must be bit-identical");
        assert_eq!(whole.ratio(), resumed.ratio());
        assert!(FilledSpectrum::decode("672 0 0").is_err());
        assert!(FilledSpectrum::decode("672").is_err());
    }

    #[test]
    fn spectrum_memory_is_independent_of_length() {
        let small = FilledSpectrum::new(672, 96);
        let big = FilledSpectrum::new(672 * 64, 96);
        // Same number of tracked bins regardless of schedule length.
        assert!(big.memory_bytes() <= small.memory_bytes() + 64);
    }

    proptest! {
        /// Sketch quantiles stay within the rank-error envelope of the
        /// exact percentile, under NaN injection, across shapes.
        #[test]
        fn prop_sketch_within_rank_error_of_percentile(
            values in proptest::collection::vec(-1e3f64..1e3, 1..600),
            nan_every in 2usize..17,
            capacity in 8usize..96,
            q in 0.0f64..1.0,
        ) {
            let data: Vec<f64> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| if i % nan_every == 0 { f64::NAN } else { v })
                .collect();
            let sorted = sorted_clean(&data);
            let sk = sketch_of(&data, capacity, 16);
            prop_assert_eq!(sk.count() as usize, sorted.len());
            if sorted.is_empty() {
                prop_assert_eq!(sk.quantile(q), None);
            } else {
                let est = sk.quantile(q).unwrap();
                let cap = (sorted.len() as u64)
                    .div_ceil(sk.capacity as u64)
                    .max(1) as f64;
                let slack = 2.0 * cap + 1.0;
                let r = q * (sorted.len() - 1) as f64;
                let lo = ((r - slack).floor().max(0.0)) as usize;
                let hi = ((r + slack).ceil() as usize).min(sorted.len() - 1);
                let eps = 1e-9 * (1.0 + est.abs());
                prop_assert!(
                    est >= sorted[lo] - eps && est <= sorted[hi] + eps,
                    "q={} est={} bounds=[{}, {}]", q, est, sorted[lo], sorted[hi]
                );
            }
        }

        /// NaN injection never changes what the survivors produce.
        #[test]
        fn prop_sketch_nan_injection_equals_filtering(
            values in proptest::collection::vec(-50f64..50.0, 0..300),
            nan_every in 2usize..9,
        ) {
            let with_nan: Vec<f64> = values
                .iter()
                .enumerate()
                .flat_map(|(i, &v)| {
                    if i % nan_every == 0 { vec![f64::NAN, v] } else { vec![v] }
                })
                .collect();
            let a = sketch_of(&values, 32, 16);
            let b = sketch_of(&with_nan, 32, 16);
            prop_assert_eq!(a, b);
        }

        /// Chunked merge stays within the rank-error envelope too (the
        /// sharded-campaign shape).
        #[test]
        fn prop_merged_sketch_within_rank_error(
            values in proptest::collection::vec(0f64..100.0, 10..500),
            chunk in 7usize..50,
            q in 0.0f64..1.0,
        ) {
            let mut acc = QuantileSketch::with_shape(48, 16);
            for c in values.chunks(chunk) {
                acc.merge(&sketch_of(c, 48, 16));
            }
            let sorted = sorted_clean(&values);
            let est = acc.quantile(q).unwrap();
            let cap = (sorted.len() as u64).div_ceil(48).max(1) as f64;
            let slack = 2.0 * cap + 1.0;
            let r = q * (sorted.len() - 1) as f64;
            let lo = ((r - slack).floor().max(0.0)) as usize;
            let hi = ((r + slack).ceil() as usize).min(sorted.len() - 1);
            let eps = 1e-9 * (1.0 + est.abs());
            prop_assert!(est >= sorted[lo] - eps && est <= sorted[hi] + eps);
        }

        /// Welford merge == single pass, to float tolerance.
        #[test]
        fn prop_moments_merge_matches_single_pass(
            values in proptest::collection::vec(-1e3f64..1e3, 1..400),
            chunk in 3usize..40,
        ) {
            let mut whole = StreamingMoments::new();
            for &x in &values { whole.push(x); }
            let mut merged = StreamingMoments::new();
            for c in values.chunks(chunk) {
                let mut part = StreamingMoments::new();
                for &x in c { part.push(x); }
                merged.merge(&part);
            }
            prop_assert_eq!(merged.count(), whole.count());
            let tol = 1e-6 * (1.0 + whole.variance().unwrap().abs());
            prop_assert!((merged.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-7);
            prop_assert!((merged.variance().unwrap() - whole.variance().unwrap()).abs() < tol);
        }

        /// Streamed PSD ratio tracks the FFT reference on random gappy
        /// diurnal series.
        #[test]
        fn prop_spectrum_matches_fft(
            amp in 0.0f64..30.0,
            noise in 0.1f64..10.0,
            loss_every in 2usize..40,
        ) {
            let slots: Vec<Option<f64>> = diurnal_slots(672, 96, amp, noise)
                .into_iter()
                .enumerate()
                .map(|(i, s)| if i % loss_every == 1 { None } else { s })
                .collect();
            let mut sp = FilledSpectrum::new(672, 96);
            for &s in &slots { sp.fold(s); }
            let exact = filled_reference(&slots).and_then(|f| diurnal_psd_ratio(&f, 96));
            match (sp.ratio(), exact) {
                (None, None) => {}
                (Some(s), Some(e)) => prop_assert!((s - e).abs() < 1e-6, "{} vs {}", s, e),
                other => prop_assert!(false, "presence mismatch: {:?}", other),
            }
        }
    }
}
