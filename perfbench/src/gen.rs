//! Seeded inputs: pad-literal variants of the bundled apps and in-place
//! edits of one function.
//!
//! A variant appends a dead `let _e = <literal>;` to the opening line of
//! every function of an app's MiniLang model. The pad is never read, so a
//! variant keeps its app's detected pattern and lint findings, and since
//! no line moves, every reported line number stays put. A fresh literal
//! changes the source digest, so each variant misses every cache stage.
//! Rewriting the model's own literals instead would change what the
//! program computes (larger loop bounds, out-of-range indices).

use parpat_engine::xorshift64;
use parpat_suite::App;

/// Pad literals are drawn from an odd-multiplier affine map over
/// `0..2^40`, a bijection: no literal repeats within a run, and every
/// value stays exact as an `f64` constant.
const LITERAL_BITS: u32 = 40;

/// One app's model split at its function-opening lines.
#[derive(Debug, Clone)]
pub struct Template {
    /// The app's Table III name.
    pub name: &'static str,
    lines: Vec<&'static str>,
    /// Indices into `lines` of each `fn ... {` line, in source order.
    fn_lines: Vec<usize>,
}

impl Template {
    /// Split `app`'s model. Fails when a function's opening line does not
    /// end in `{`, where a pad could not be appended.
    pub fn new(app: &App) -> Result<Template, String> {
        let lines: Vec<&'static str> = app.model.lines().collect();
        let fn_lines: Vec<usize> =
            (0..lines.len()).filter(|&i| lines[i].trim_start().starts_with("fn ")).collect();
        if let Some(&i) = fn_lines.iter().find(|&&i| !lines[i].trim_end().ends_with('{')) {
            return Err(format!("{}: line {} opens a function without `{{`", app.name, i + 1));
        }
        Ok(Template { name: app.name, lines, fn_lines })
    }

    /// Number of functions (pad slots).
    pub fn functions(&self) -> usize {
        self.fn_lines.len()
    }

    /// Render the model with one pad literal per function.
    pub fn render(&self, pads: &[u64]) -> String {
        debug_assert_eq!(pads.len(), self.fn_lines.len());
        let mut out = String::with_capacity(self.lines.iter().map(|l| l.len() + 24).sum());
        let mut next = 0;
        for (i, line) in self.lines.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(line);
            if self.fn_lines.get(next) == Some(&i) {
                out.push_str(&format!(" let _e = {};", pads[next]));
                next += 1;
            }
        }
        out
    }
}

/// A padded program: which app, and the pad literal of each function.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Index into [`Gen::templates`].
    pub app: usize,
    /// One pad literal per function, in source order.
    pub pads: Vec<u64>,
}

/// The seeded generator. Equal seeds give equal streams.
#[derive(Debug, Clone)]
pub struct Gen {
    templates: Vec<Template>,
    rng: u64,
    mult: u64,
    offset: u64,
    drawn: u64,
}

impl Gen {
    /// A generator over the 17 bundled apps (Table III), in suite order.
    pub fn new(seed: u64) -> Result<Gen, String> {
        let templates =
            parpat_suite::all_apps().iter().map(Template::new).collect::<Result<Vec<_>, _>>()?;
        // Nonzero xorshift state, and an odd multiplier for the bijection.
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mult = (xorshift64(&mut rng) | 1) & mask();
        let offset = xorshift64(&mut rng) & mask();
        Ok(Gen { templates, rng, mult, offset, drawn: 0 })
    }

    /// The app templates, in suite order.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// A fresh pad literal, never drawn before in this generator.
    fn literal(&mut self) -> u64 {
        self.drawn += 1;
        self.offset.wrapping_add(self.drawn.wrapping_mul(self.mult)) & mask()
    }

    /// A new variant of app `app` with every pad literal drawn fresh.
    pub fn variant(&mut self, app: usize) -> Variant {
        let pads = (0..self.templates[app].functions()).map(|_| self.literal()).collect();
        Variant { app, pads }
    }

    /// Edit `v` in place: redraw the pad literal of one seeded function.
    /// Returns the edited function's index.
    pub fn edit(&mut self, v: &mut Variant) -> usize {
        let f = (xorshift64(&mut self.rng) % v.pads.len() as u64) as usize;
        v.pads[f] = self.literal();
        f
    }

    /// A seeded value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (xorshift64(&mut self.rng) % n as u64) as usize
    }

    /// The variant's source text.
    pub fn source(&self, v: &Variant) -> String {
        self.templates[v.app].render(&v.pads)
    }

    /// The variant's app name.
    pub fn name(&self, v: &Variant) -> &'static str {
        self.templates[v.app].name
    }
}

fn mask() -> u64 {
    (1u64 << LITERAL_BITS) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use parpat_core::AnalysisConfig;

    /// Checks every variant of two seeds against the unpadded suite: it
    /// parses, keeps its Table III pattern, and lints byte-identically to
    /// the checked-in golden snapshot.
    #[test]
    fn variants_parse_keep_their_pattern_and_lint_like_the_golden() {
        let golden = crate::golden::Golden::load().expect("golden parses");
        let apps = parpat_suite::all_apps();
        for seed in [1, 0xDEAD_BEEF] {
            let mut g = Gen::new(seed).expect("templates");
            for (i, app) in apps.iter().enumerate() {
                let v = g.variant(i);
                let src = g.source(&v);
                assert!(src.contains("let _e = "), "{}", app.name);
                parpat_minilang::parse_checked(&src).expect("variant parses");
                let analysis = parpat_core::analyze_source(&src, &AnalysisConfig::default())
                    .expect("variant analyzes");
                assert!(
                    parpat_bench::tables::matches_paper(app, &analysis),
                    "{} lost its Table III pattern",
                    app.name
                );
                assert_eq!(
                    crate::golden::render_program(app.name, &parpat_static::lint_source(&src)),
                    golden.expected(app.name).expect("app in golden"),
                    "{} lints differently",
                    app.name
                );
            }
        }
    }

    #[test]
    fn an_edit_changes_exactly_one_function_and_moves_no_line() {
        for seed in [7, 8] {
            let mut g = Gen::new(seed).expect("templates");
            for app in 0..g.templates().len() {
                let mut v = g.variant(app);
                let before = g.source(&v);
                let f = g.edit(&mut v);
                let after = g.source(&v);
                let (b, a): (Vec<&str>, Vec<&str>) =
                    (before.lines().collect(), after.lines().collect());
                assert_eq!(b.len(), a.len(), "an edit moved lines");
                let changed: Vec<usize> =
                    (0..b.len()).filter(|&i| b[i] != a[i]).map(|i| i + 1).collect();
                assert_eq!(changed.len(), 1, "one line changes");
                // Function `f` spans its opening line up to the next one's.
                let t = &g.templates()[app];
                let end = t.fn_lines.get(f + 1).copied().unwrap_or(t.lines.len());
                assert!(
                    (t.fn_lines[f] + 1..end + 1).contains(&changed[0]),
                    "the change is in function {f}"
                );
                parpat_minilang::parse_checked(&after).expect("edit parses");
            }
        }
    }

    #[test]
    fn streams_repeat_per_seed_and_literals_never_repeat() {
        let draw = |seed| {
            let mut g = Gen::new(seed).expect("templates");
            (0..200).map(|i| g.variant(i % 17)).flat_map(|v| v.pads).collect::<Vec<u64>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        let distinct: std::collections::HashSet<&u64> = a.iter().collect();
        assert_eq!(distinct.len(), a.len());
    }
}
