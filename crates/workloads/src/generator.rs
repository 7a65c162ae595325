use padc_cpu::{TraceOp, TraceSource};
use padc_types::{Addr, LineAddr, LINE_BYTES};
use rand::distributions::{Bernoulli, Distribution};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{BenchProfile, Pattern};

/// Address-space span reserved per core so that multiprogrammed workloads
/// never share lines (private working sets, as in the paper's
/// multiprogrammed SPEC mixes).
pub const CORE_ADDRESS_SPAN_LINES: u64 = 1 << 32;

/// The RNG behind the stream of benchmark `name` on core `core_index`.
fn stream_rng(name: &str, core_index: usize, seed: u64) -> SmallRng {
    let mut hash = seed ^ 0x5851_F42D_4C95_7F2D;
    for b in name.bytes() {
        hash = hash.wrapping_mul(0x100_0000_01B3).wrapping_add(b as u64);
    }
    SmallRng::seed_from_u64(hash.wrapping_add((core_index as u64) << 40))
}

#[derive(Clone, Debug)]
struct Cursor {
    line: u64,
    pc: u64,
}

/// Deterministic trace generator for one core running one benchmark
/// profile. Implements [`TraceSource`]; `fork` clones the full generator
/// state, which is what runahead pre-execution needs.
///
/// Everything `next_op` reads per instruction is a flat field set up in
/// [`TraceGen::new`] (or on a phase crossing): each profile probability is
/// a [`Bernoulli`] threshold, so a decision is one draw and one integer
/// compare, and the phase list is consulted only when `instr_index`
/// reaches `phase_end`. The op stream is a function of the profile, core
/// and seed alone and is pinned op for op by this module's tests.
#[derive(Clone, Debug)]
pub struct TraceGen {
    profile: BenchProfile,
    rng: SmallRng,
    base_line: u64,
    instr_index: u64,
    /// First instruction index past the current phase.
    phase_end: u64,
    current_phase: usize,
    /// The current phase's pattern.
    pattern: Pattern,
    /// Stream/stride cursors for the current phase (reset on phase change).
    cursors: Vec<Cursor>,
    is_mem: Bernoulli,
    is_store: Bernoulli,
    is_dependent: Bernoulli,
    is_hot: Bernoulli,
    /// `None` for an `irregular_fraction` of zero, which draws nothing.
    is_irregular: Option<Bernoulli>,
    working_set_lines: u64,
    hot_lines: u64,
    accesses_per_line: u32,
    /// Remaining accesses to the current line (spatial reuse).
    line_reuse_left: u32,
    current_line: u64,
    current_pc: u64,
    /// Remaining lines in the current short run.
    run_left: u32,
}

impl TraceGen {
    /// Creates a generator for `profile` on core `core_index`, seeded
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`BenchProfile::validate`].
    pub fn new(profile: &BenchProfile, core_index: usize, seed: u64) -> Self {
        profile.validate();
        let threshold = |p: f64| Bernoulli::new(p).expect("validate() checked the range");
        let mut gen = TraceGen {
            profile: profile.clone(),
            rng: stream_rng(&profile.name, core_index, seed),
            base_line: core_index as u64 * CORE_ADDRESS_SPAN_LINES,
            instr_index: 0,
            phase_end: profile.phases[0].instructions,
            current_phase: 0,
            pattern: Pattern::Random,
            cursors: Vec::new(),
            is_mem: threshold(profile.mem_ratio),
            is_store: threshold(profile.store_fraction),
            is_dependent: threshold(profile.dependent_fraction),
            is_hot: threshold(profile.hot_fraction),
            is_irregular: (profile.irregular_fraction > 0.0)
                .then(|| threshold(profile.irregular_fraction)),
            working_set_lines: profile.working_set_lines,
            hot_lines: profile.hot_lines,
            accesses_per_line: profile.accesses_per_line,
            line_reuse_left: 0,
            current_line: 0,
            current_pc: 0x1000,
            run_left: 0,
        };
        gen.enter_phase(0);
        gen
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &BenchProfile {
        &self.profile
    }

    /// `instr_index` has reached `phase_end`: finds the phase it is in now
    /// (the list is cyclic) and where that phase ends. Cursors restart only
    /// when the phase *index* changes, so a one-phase profile keeps its
    /// cursors across the wrap.
    #[cold]
    fn cross_phase(&mut self) {
        let mut pos = self.instr_index % self.profile.phase_cycle_len();
        let mut phase = 0;
        while pos >= self.profile.phases[phase].instructions {
            pos -= self.profile.phases[phase].instructions;
            phase += 1;
        }
        self.phase_end = self.instr_index - pos + self.profile.phases[phase].instructions;
        if phase != self.current_phase {
            self.enter_phase(phase);
        }
    }

    fn enter_phase(&mut self, phase: usize) {
        self.current_phase = phase;
        self.pattern = self.profile.phases[phase].pattern;
        let ws = self.working_set_lines;
        let n_cursors = match self.pattern {
            Pattern::Stream { streams } | Pattern::Strided { streams, .. } => streams.max(1),
            Pattern::ShortRuns { .. } | Pattern::Random => 1,
        };
        self.cursors = (0..n_cursors)
            .map(|i| Cursor {
                line: self.rng.gen_range(0..ws),
                pc: 0x1000 + (i as u64) * 8,
            })
            .collect();
        self.run_left = 0;
        self.line_reuse_left = 0;
    }

    /// `line` reduced into the working set. Cursors live in `[0, ws)`, so
    /// the division runs only on the step that leaves it: the `+1` off the
    /// end, or a stride that wrapped below zero or jumped past `ws` (whose
    /// `u64` wrap-then-`%` landing spot is part of the stream).
    #[inline]
    fn wrap(line: u64, ws: u64) -> u64 {
        if line >= ws {
            line % ws
        } else {
            line
        }
    }

    /// Picks the next (line, pc) according to the phase pattern.
    fn next_pattern_line(&mut self) -> (u64, u64) {
        let ws = self.working_set_lines;
        // Residual irregular accesses: a random line that the stream
        // prefetcher will not have covered (and whose row usually conflicts
        // with the streamed rows).
        if let Some(irregular) = self.is_irregular {
            if irregular.sample(&mut self.rng) {
                let line = self.rng.gen_range(0..ws);
                let pc = 0x4000 + self.rng.gen_range(0..8u64) * 8;
                return (line, pc);
            }
        }
        match self.pattern {
            Pattern::Stream { .. } => {
                let i = self.rng.gen_range(0..self.cursors.len());
                let c = &mut self.cursors[i];
                c.line = Self::wrap(c.line + 1, ws);
                (c.line, c.pc)
            }
            Pattern::Strided { stride, .. } => {
                let i = self.rng.gen_range(0..self.cursors.len());
                let c = &mut self.cursors[i];
                c.line = Self::wrap(c.line.wrapping_add_signed(stride), ws);
                (c.line, c.pc)
            }
            Pattern::ShortRuns { run_len } => {
                let c = &mut self.cursors[0];
                if self.run_left == 0 {
                    c.line = self.rng.gen_range(0..ws);
                    self.run_left = run_len.max(1);
                } else {
                    c.line = Self::wrap(c.line + 1, ws);
                }
                self.run_left -= 1;
                (c.line, c.pc)
            }
            Pattern::Random => {
                let line = self.rng.gen_range(0..ws);
                let pc = 0x2000 + (self.rng.gen_range(0..16u64)) * 8;
                (line, pc)
            }
        }
    }

    fn next_mem_line(&mut self) -> (u64, u64) {
        // Spatial reuse: repeat the current line `accesses_per_line` times.
        if self.line_reuse_left == 0 {
            if self.is_hot.sample(&mut self.rng) {
                // Hot-set access: hits in the caches, one touch.
                let line = self.rng.gen_range(0..self.hot_lines);
                let pc = 0x3000 + (line % 8) * 8;
                // Hot lines live just above the working set.
                return (self.working_set_lines + line, pc);
            }
            let (line, pc) = self.next_pattern_line();
            self.current_line = line;
            self.current_pc = pc;
            self.line_reuse_left = self.accesses_per_line;
        }
        self.line_reuse_left -= 1;
        (self.current_line, self.current_pc)
    }
}

impl TraceSource for TraceGen {
    #[inline]
    fn next_op(&mut self) -> TraceOp {
        if self.instr_index == self.phase_end {
            self.cross_phase();
        }
        self.instr_index += 1;
        if !self.is_mem.sample(&mut self.rng) {
            return TraceOp::Compute;
        }
        let (rel_line, pc) = self.next_mem_line();
        let line = LineAddr::new(self.base_line + rel_line);
        // Touch a pseudo-random byte in the line for realism; the memory
        // system is line-granular anyway.
        let addr = Addr::new(line.base_addr().raw() + self.rng.gen_range(0..LINE_BYTES / 8) * 8);
        if self.is_store.sample(&mut self.rng) {
            TraceOp::Store { addr, pc }
        } else {
            let dep = self.is_dependent.sample(&mut self.rng);
            TraceOp::Load { addr, pc, dep }
        }
    }

    fn fork(&self) -> Box<dyn TraceSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::RngCore;

    use crate::{PhaseSpec, PrefetchClass};

    use super::*;

    /// The generator as first written, kept as the op-level oracle for
    /// [`TraceGen`]: every decision converts its `f64` probability again,
    /// every op walks the phase list, every cursor step divides. It shares
    /// the seeded [`SmallRng`] (and `gen_range`) with the fast path and
    /// nothing else.
    #[derive(Clone)]
    struct RefGen {
        profile: BenchProfile,
        rng: SmallRng,
        base_line: u64,
        instr_index: u64,
        cursors: Vec<(u64, u64)>,
        current_phase: usize,
        line_reuse_left: u32,
        current: (u64, u64),
        run_left: u32,
    }

    /// `gen_bool` as the shim had it before `Bernoulli`: one draw always,
    /// compared against `p` scaled by 2^64.
    fn ref_bool(rng: &mut SmallRng, p: f64) -> bool {
        let draw = rng.next_u64();
        p == 1.0 || draw < (p * 18_446_744_073_709_551_616.0) as u64
    }

    impl RefGen {
        fn new(profile: &BenchProfile, core_index: usize, seed: u64) -> Self {
            let mut gen = RefGen {
                profile: profile.clone(),
                rng: stream_rng(&profile.name, core_index, seed),
                base_line: core_index as u64 * CORE_ADDRESS_SPAN_LINES,
                instr_index: 0,
                cursors: Vec::new(),
                current_phase: usize::MAX,
                line_reuse_left: 0,
                current: (0, 0x1000),
                run_left: 0,
            };
            gen.enter_phase(0);
            gen
        }

        fn phase_at(&self, instr: u64) -> usize {
            let mut pos = instr % self.profile.phase_cycle_len();
            for (i, p) in self.profile.phases.iter().enumerate() {
                if pos < p.instructions {
                    return i;
                }
                pos -= p.instructions;
            }
            unreachable!("the cycle length covers the whole list")
        }

        fn enter_phase(&mut self, phase: usize) {
            self.current_phase = phase;
            let n = match self.profile.phases[phase].pattern {
                Pattern::Stream { streams } | Pattern::Strided { streams, .. } => streams.max(1),
                Pattern::ShortRuns { .. } | Pattern::Random => 1,
            };
            let ws = self.profile.working_set_lines;
            self.cursors = (0..n as u64)
                .map(|i| (self.rng.gen_range(0..ws), 0x1000 + i * 8))
                .collect();
            self.run_left = 0;
            self.line_reuse_left = 0;
        }

        fn next_pattern_line(&mut self) -> (u64, u64) {
            let ws = self.profile.working_set_lines;
            let irregular = self.profile.irregular_fraction;
            if irregular > 0.0 && ref_bool(&mut self.rng, irregular) {
                let line = self.rng.gen_range(0..ws);
                return (line, 0x4000 + self.rng.gen_range(0..8u64) * 8);
            }
            match self.profile.phases[self.current_phase].pattern {
                Pattern::Stream { .. } => {
                    let i = self.rng.gen_range(0..self.cursors.len());
                    self.cursors[i].0 = (self.cursors[i].0 + 1) % ws;
                    self.cursors[i]
                }
                Pattern::Strided { stride, .. } => {
                    let i = self.rng.gen_range(0..self.cursors.len());
                    self.cursors[i].0 = self.cursors[i].0.wrapping_add_signed(stride) % ws;
                    self.cursors[i]
                }
                Pattern::ShortRuns { run_len } => {
                    if self.run_left == 0 {
                        self.cursors[0].0 = self.rng.gen_range(0..ws);
                        self.run_left = run_len.max(1);
                    } else {
                        self.cursors[0].0 = (self.cursors[0].0 + 1) % ws;
                    }
                    self.run_left -= 1;
                    self.cursors[0]
                }
                Pattern::Random => {
                    let line = self.rng.gen_range(0..ws);
                    (line, 0x2000 + self.rng.gen_range(0..16u64) * 8)
                }
            }
        }

        fn next_op(&mut self) -> TraceOp {
            let phase = self.phase_at(self.instr_index);
            if phase != self.current_phase {
                self.enter_phase(phase);
            }
            self.instr_index += 1;
            if !ref_bool(&mut self.rng, self.profile.mem_ratio) {
                return TraceOp::Compute;
            }
            if self.line_reuse_left == 0 && ref_bool(&mut self.rng, self.profile.hot_fraction) {
                let line = self.rng.gen_range(0..self.profile.hot_lines);
                return self.finish(
                    self.profile.working_set_lines + line,
                    0x3000 + (line % 8) * 8,
                );
            }
            if self.line_reuse_left == 0 {
                self.current = self.next_pattern_line();
                self.line_reuse_left = self.profile.accesses_per_line;
            }
            self.line_reuse_left -= 1;
            self.finish(self.current.0, self.current.1)
        }

        fn finish(&mut self, rel_line: u64, pc: u64) -> TraceOp {
            let byte = self.rng.gen_range(0..LINE_BYTES / 8) * 8;
            let addr = Addr::new(((self.base_line + rel_line) << 6) + byte);
            if ref_bool(&mut self.rng, self.profile.store_fraction) {
                return TraceOp::Store { addr, pc };
            }
            let dep = ref_bool(&mut self.rng, self.profile.dependent_fraction);
            TraceOp::Load { addr, pc, dep }
        }
    }

    /// 0.0 and 1.0 (the `Bernoulli` edge thresholds) as often as anything
    /// in between.
    fn fraction() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0, 0.5f64..1.0]
    }

    fn pattern() -> impl Strategy<Value = Pattern> {
        // Strides: small either way, and longer than any working set drawn
        // below, so both the below-zero and the past-the-end wraps occur.
        let stride = prop_oneof![-70i64..70, 6_000i64..20_000, -20_000i64..-6_000];
        prop_oneof![
            (0usize..5).prop_map(|streams| Pattern::Stream { streams }),
            (0u32..9).prop_map(|run_len| Pattern::ShortRuns { run_len }),
            Just(Pattern::Random),
            (stride, 0usize..4).prop_map(|(stride, streams)| Pattern::Strided { stride, streams }),
        ]
    }

    fn bench_profile() -> impl Strategy<Value = BenchProfile> {
        let phases = prop::collection::vec(
            (pattern(), 1u64..60).prop_map(|(pattern, instructions)| PhaseSpec {
                pattern,
                instructions,
            }),
            1..5,
        );
        // Working sets small enough that every cursor wraps many times.
        let sizes = (1u64..20, prop_oneof![1u64..64, 1_000u64..5_000], 1u32..5);
        (
            fraction(),
            fraction(),
            fraction(),
            fraction(),
            fraction(),
            sizes,
            phases,
        )
            .prop_map(
                |(
                    mem_ratio,
                    store_fraction,
                    hot_fraction,
                    dependent_fraction,
                    irregular_fraction,
                    sizes,
                    phases,
                )| {
                    BenchProfile {
                        name: "arbitrary".into(),
                        class: PrefetchClass::Friendly,
                        mem_ratio,
                        store_fraction,
                        hot_fraction,
                        hot_lines: sizes.0,
                        working_set_lines: sizes.1,
                        accesses_per_line: sizes.2,
                        dependent_fraction,
                        irregular_fraction,
                        phases,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// [`TraceGen`] against [`RefGen`], op for op, over profiles whose
        /// phases are at most 59 instructions long (so 10 000 ops cross
        /// hundreds of boundaries), with a fork taken mid-stream.
        #[test]
        fn fast_path_matches_the_reference_op_for_op(
            profile in bench_profile(),
            seed in any::<u64>(),
            core in 0usize..8,
            fork_at in 0usize..10_000,
        ) {
            let mut fast = TraceGen::new(&profile, core, seed);
            let mut reference = RefGen::new(&profile, core, seed);
            for i in 0..10_000 {
                if i == fork_at {
                    let mut fork = fast.fork();
                    let mut ref_fork = reference.clone();
                    for j in 0..300 {
                        prop_assert_eq!(fork.next_op(), ref_fork.next_op(), "fork op {}", j);
                    }
                }
                prop_assert_eq!(fast.next_op(), reference.next_op(), "op {}", i);
            }
        }
    }

    const fn crc_table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    const CRC_TABLE: [u32; 256] = crc_table();

    /// CRC-32 (IEEE) of the next `ops` ops: a tag byte each (0 compute,
    /// 1 load, 2 dependent load, 3 store), then `addr` and `pc`
    /// little-endian for the memory ops.
    fn stream_crc(mut next_op: impl FnMut() -> TraceOp, ops: usize) -> u32 {
        let mut crc = !0u32;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                crc = CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
            }
        };
        for _ in 0..ops {
            let (tag, addr, pc) = match next_op() {
                TraceOp::Compute => {
                    eat(&[0]);
                    continue;
                }
                TraceOp::Load { addr, pc, dep } => (1 + u8::from(dep), addr, pc),
                TraceOp::Store { addr, pc } => (3, addr, pc),
            };
            eat(&[tag]);
            eat(&addr.raw().to_le_bytes());
            eat(&pc.to_le_bytes());
        }
        !crc
    }

    /// `stream_crc` of the first 50 000 ops of every catalog profile on
    /// core 0 at seeds 1 and 2, recorded from the per-op generator
    /// ([`RefGen`]'s original) at the commit before the fast path replaced
    /// it. Every committed artifact was generated from these streams.
    const CATALOG_STREAM_CRCS: [(&str, u32, u32); 55] = [
        ("eon_00", 0x5EBD10E7, 0x30BE2E5D),
        ("mgrid_00", 0x74683F6D, 0x0DE1C71A),
        ("art_00", 0x34B85702, 0x739ED5FD),
        ("facerec_00", 0x21A9E7E2, 0x78EEA50F),
        ("lucas_00", 0xD13A57C1, 0xF4592715),
        ("mcf_06", 0xAD312357, 0xA9C3652F),
        ("sjeng_06", 0x0D75948B, 0x6D4AECA8),
        ("libquantum_06", 0x7F5EDAAA, 0x5AEE7756),
        ("xalancbmk_06", 0x42E19654, 0x5C9028D0),
        ("gamess_06", 0x830DC8DF, 0x5EC4E1BB),
        ("zeusmp_06", 0x5B51D17C, 0xE585B8CC),
        ("leslie3d_06", 0x9A404BCC, 0xC6089296),
        ("GemsFDTD_06", 0x26ECE3FA, 0x5411DA5E),
        ("wrf_06", 0x1B4B4595, 0x606EFE6B),
        ("swim_00", 0x075E1C00, 0xEA961F1A),
        ("galgel_00", 0xB6563E10, 0x0BF42104),
        ("equake_00", 0x0EBF5EF1, 0xE13F2B34),
        ("ammp_00", 0x49082DCE, 0x0DB2B1B8),
        ("gcc_06", 0xCAA9E37C, 0x5DF424C5),
        ("hmmer_06", 0xE6EB64C1, 0x76ECE3CC),
        ("omnetpp_06", 0x0E46FEC0, 0x35EB2F8A),
        ("astar_06", 0xC23EA288, 0x043B4FAE),
        ("bwaves_06", 0x90BB2274, 0x2289008E),
        ("milc_06", 0xB89702E7, 0x09A7CBBA),
        ("cactusADM_06", 0xEDB6AA7D, 0x9D15F125),
        ("soplex_06", 0x944EF3DE, 0x9605D2D0),
        ("lbm_06", 0xCD189B3F, 0x72FEB0EE),
        ("sphinx3_06", 0x162115BF, 0x4513F8EC),
        ("gzip_00", 0xED81F874, 0xE210CEDB),
        ("vpr_00", 0x0B88817F, 0x8E1E707B),
        ("crafty_00", 0x0AE87345, 0x90FC6E9B),
        ("parser_00", 0x1EB32A62, 0x4DD52118),
        ("perlbmk_00", 0x20C63874, 0xE2E8C935),
        ("gap_00", 0x8133A4F4, 0x027C9E71),
        ("vortex_00", 0xC30A8E16, 0xA71800DB),
        ("bzip2_00", 0xD6AA6E2F, 0x44CC8689),
        ("twolf_00", 0xCBADC69D, 0x2E1B28F0),
        ("mesa_00", 0xFCB846F6, 0x21561603),
        ("fma3d_00", 0x93BB9906, 0x10140D46),
        ("sixtrack_00", 0x7C3158FF, 0xB64B0D17),
        ("perlbench_06", 0x87A82391, 0xD1D6DCF3),
        ("bzip2_06", 0x64FD62C8, 0xE29FAC03),
        ("gobmk_06", 0x18847243, 0x8D98BE40),
        ("h264ref_06", 0xEDED6337, 0x275143C0),
        ("tonto_06", 0x4533C131, 0x245DE158),
        ("namd_06", 0xE696F6B6, 0xC0FF9FC3),
        ("dealII_06", 0x5E3B33DF, 0x2F7DC697),
        ("povray_06", 0x008D73DB, 0xE482C25D),
        ("calculix_06", 0xF84AB77E, 0xA959B713),
        ("gromacs_06", 0x2DE87B12, 0x0DB3EB63),
        ("wupwise_00", 0xFE4F9F12, 0x97386FFE),
        ("applu_00", 0x7C8A1F90, 0x447F4482),
        ("apsi_00", 0x70A0FD20, 0x12ECB5E7),
        ("mesa_06_like_sweep", 0xC4EA01D4, 0x5476E70B),
        ("fortran_stream_06", 0x36697A20, 0x7C6D9B6D),
    ];

    #[test]
    fn catalog_streams_match_their_recorded_crcs() {
        let catalog = crate::profiles::all();
        assert_eq!(catalog.len(), CATALOG_STREAM_CRCS.len());
        for (p, (name, seed1, seed2)) in catalog.iter().zip(CATALOG_STREAM_CRCS) {
            assert_eq!(p.name, name);
            for (seed, recorded) in [(1, seed1), (2, seed2)] {
                let mut fast = TraceGen::new(p, 0, seed);
                let crc = stream_crc(|| fast.next_op(), 50_000);
                assert_eq!(crc, recorded, "{name} seed {seed}: {crc:#010X}");
                // The oracle is held to the same record, so it cannot drift
                // together with the fast path.
                let mut reference = RefGen::new(p, 0, seed);
                assert_eq!(stream_crc(|| reference.next_op(), 50_000), recorded);
            }
        }
    }

    fn profile(pattern: Pattern) -> BenchProfile {
        BenchProfile {
            name: "test".into(),
            class: PrefetchClass::Friendly,
            mem_ratio: 1.0,
            store_fraction: 0.0,
            hot_fraction: 0.0,
            hot_lines: 16,
            working_set_lines: 1 << 24,
            accesses_per_line: 1,
            dependent_fraction: 0.0,
            irregular_fraction: 0.0,
            phases: vec![PhaseSpec {
                pattern,
                instructions: 10_000,
            }],
        }
    }

    fn lines(gen: &mut TraceGen, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| match gen.next_op() {
                TraceOp::Load { addr, .. } | TraceOp::Store { addr, .. } => addr.line().raw(),
                TraceOp::Compute => panic!("mem_ratio is 1.0"),
            })
            .collect()
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let p = profile(Pattern::Stream { streams: 4 });
        let mut a = TraceGen::new(&p, 0, 42);
        let mut b = TraceGen::new(&p, 0, 42);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = profile(Pattern::Random);
        let mut a = TraceGen::new(&p, 0, 1);
        let mut b = TraceGen::new(&p, 0, 2);
        let same = (0..100).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 100);
    }

    #[test]
    fn cores_use_disjoint_address_spaces() {
        let p = profile(Pattern::Random);
        let mut a = TraceGen::new(&p, 0, 1);
        let mut b = TraceGen::new(&p, 1, 1);
        let la = lines(&mut a, 200);
        let lb = lines(&mut b, 200);
        assert!(la.iter().all(|l| *l < CORE_ADDRESS_SPAN_LINES));
        assert!(lb.iter().all(|l| *l >= CORE_ADDRESS_SPAN_LINES));
    }

    #[test]
    fn stream_pattern_is_sequential_per_stream() {
        let p = profile(Pattern::Stream { streams: 1 });
        let mut g = TraceGen::new(&p, 0, 7);
        let ls = lines(&mut g, 100);
        for w in ls.windows(2) {
            assert_eq!(w[1], w[0] + 1, "single stream must be sequential");
        }
    }

    #[test]
    fn strided_pattern_steps_by_stride() {
        let p = profile(Pattern::Strided {
            stride: 5,
            streams: 1,
        });
        let mut g = TraceGen::new(&p, 0, 7);
        let ls = lines(&mut g, 50);
        for w in ls.windows(2) {
            assert_eq!(w[1], w[0] + 5);
        }
    }

    #[test]
    fn short_runs_jump_after_run_len() {
        let p = profile(Pattern::ShortRuns { run_len: 4 });
        let mut g = TraceGen::new(&p, 0, 7);
        let ls = lines(&mut g, 40);
        // Within a run of 4, deltas are +1; at run boundaries they jump.
        let mut jumps = 0;
        for w in ls.windows(2) {
            if w[1] != w[0] + 1 {
                jumps += 1;
            }
        }
        assert!(jumps >= 8, "expected ~10 jumps, saw {jumps}");
    }

    #[test]
    fn fork_produces_identical_continuation() {
        let p = profile(Pattern::Stream { streams: 4 });
        let mut g = TraceGen::new(&p, 0, 7);
        for _ in 0..100 {
            g.next_op();
        }
        let mut f = g.fork();
        let expected: Vec<_> = (0..50).map(|_| f.next_op()).collect();
        let actual: Vec<_> = (0..50).map(|_| g.next_op()).collect();
        assert_eq!(expected, actual);
    }

    #[test]
    fn phases_change_pattern() {
        let mut p = profile(Pattern::Stream { streams: 1 });
        p.phases = vec![
            PhaseSpec {
                pattern: Pattern::Stream { streams: 1 },
                instructions: 100,
            },
            PhaseSpec {
                pattern: Pattern::Random,
                instructions: 100,
            },
        ];
        let mut g = TraceGen::new(&p, 0, 7);
        let first = lines(&mut g, 100);
        let second = lines(&mut g, 100);
        let seq = |v: &[u64]| v.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(seq(&first) > 90);
        assert!(seq(&second) < 20);
    }

    #[test]
    fn accesses_per_line_creates_reuse() {
        let mut p = profile(Pattern::Stream { streams: 1 });
        p.accesses_per_line = 4;
        let mut g = TraceGen::new(&p, 0, 7);
        let ls = lines(&mut g, 40);
        let distinct: std::collections::BTreeSet<_> = ls.iter().collect();
        assert_eq!(distinct.len(), 10);
    }

    #[test]
    fn hot_fraction_concentrates_accesses() {
        let mut p = profile(Pattern::Random);
        p.hot_fraction = 0.9;
        p.hot_lines = 4;
        let mut g = TraceGen::new(&p, 0, 7);
        let ls = lines(&mut g, 1000);
        let hot_base = p.working_set_lines;
        let hot = ls
            .iter()
            .filter(|l| **l >= hot_base && **l < hot_base + 4)
            .count();
        assert!(hot > 800, "hot accesses: {hot}");
    }

    #[test]
    fn mem_ratio_controls_memory_op_density() {
        let mut p = profile(Pattern::Random);
        p.mem_ratio = 0.25;
        let mut g = TraceGen::new(&p, 0, 7);
        let mem = (0..10_000).filter(|_| g.next_op().is_memory()).count();
        assert!((2000..3000).contains(&mem), "mem ops: {mem}");
    }
}
