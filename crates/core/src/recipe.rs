//! One recipe for a row: which rows of which tables an id reads, and how
//! they become its embedding.
//!
//! Every technique in the paper's evaluation has the same shape — `k`
//! tables, one id → row map each, one combine (MEmCom's
//! `U[i mod m] ⊙ V[i] + W[i]` is `[Mod(m), Identity, Identity]` under
//! [`Combine::ScaleAdd`]) — and a [`Recipe`] is that shape as data. It is
//! the only place the decision "how an id becomes a row" is written:
//! training ([`EmbeddingCompressor::row_into`]), the on-device model file
//! (which carries the recipe in its header), the on-device engine and the
//! serve store all run [`Recipe::row_into`] over their own table storage;
//! nothing outside this module re-derives a combine. That includes its
//! derivative, what it costs and how it propagates error:
//! [`Recipe::backward`] (training's only backward), [`Combine::flops`]
//! and [`Combine::error_bound`] sit beside the executor, so a technique
//! trains without writing a gradient and a runtime that stores the tables
//! inexactly certifies its rows without knowing which technique it is
//! serving.
//!
//! [`EmbeddingCompressor::row_into`]: crate::EmbeddingCompressor::row_into

use crate::compressor::ParamTable;
use crate::hashing::RowMap;
use crate::{CoreError, Result};

/// How the rows an id reads become its embedding of `e` values. Tables
/// are numbered in [`Recipe::maps`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Combine {
    /// `T0[r0]` — one `e`-wide table (uncompressed, naive hashing,
    /// truncate-rare, reduced dim).
    Row,
    /// `T0[r0] · T1[r1]` with `T1` one scalar per row (MEmCom, Alg. 2).
    ScaleMul,
    /// `T0[r0] · T1[r1] + T2[r2]` with scalar `T1`, `T2` (MEmCom, Alg. 3).
    ScaleAdd,
    /// `T0[r0] ⊙ T1[r1]`, both `e` wide (quotient–remainder, multiply).
    Mul,
    /// `T0[r0] ‖ T1[r1] ‖ …`, `k` tables of `e / k` columns each (double
    /// hashing, quotient–remainder concat, compositional codes).
    Concat,
    /// `T0[r0] · T1`: a `hidden`-wide code lifted by the whole
    /// `hidden × e` projection table, which follows the mapped tables and
    /// has no map of its own (factorized embedding).
    Project {
        /// Code width = projection rows.
        hidden: usize,
    },
    /// `onehot(r0) · T0` — the same row [`Row`](Self::Row) reads, as the
    /// single non-zero term of the matmul. A runtime that models the dense
    /// product (the on-device engine, §5.3) charges for the whole kernel.
    OneHotMatmul,
}

impl Combine {
    /// Floating-point operations [`Recipe::row_into`] spends on one row of
    /// `dim` values.
    pub fn flops(self, dim: usize) -> usize {
        match self {
            Combine::Row | Combine::Concat => 0,
            Combine::ScaleMul | Combine::Mul => dim,
            Combine::ScaleAdd | Combine::OneHotMatmul => 2 * dim,
            Combine::Project { hidden } => 2 * hidden * dim,
        }
    }

    /// How far one value of [`Recipe::row_into`]'s output can move when
    /// the tables it reads are stored inexactly (quantized):
    /// `parts[k] = (max |x|, max |x − x'|)` over the values `x` of table
    /// `k` and their stored versions `x'`, in [`Recipe::maps`] order
    /// (then [`Project`](Combine::Project)'s projection). The bound is in
    /// real arithmetic; an `f32` run adds its own rounding on top.
    ///
    /// Beside [`flops`](Self::flops), this is the only place a combine's
    /// arithmetic is restated: a store certifies its served rows through
    /// it instead of deriving a bound per technique.
    pub fn error_bound(self, parts: &[(f32, f32)]) -> f32 {
        // |a·b − a'·b'| ≤ |b|·err(a) + |a'|·err(b), and |a'| ≤ |a| + err(a).
        // An exact factor (err 0) adds exactly 0, even beside an infinite
        // magnitude, where `inf · 0` would make the bound NaN.
        let term = |magnitude: f32, err: f32| if err == 0.0 { 0.0 } else { magnitude * err };
        let product = |a: (f32, f32), b: (f32, f32)| term(b.0, a.1) + term(a.0 + a.1, b.1);
        match self {
            Combine::Row | Combine::OneHotMatmul => parts[0].1,
            Combine::ScaleMul | Combine::Mul => product(parts[0], parts[1]),
            Combine::ScaleAdd => product(parts[0], parts[1]) + parts[2].1,
            Combine::Concat => parts.iter().fold(0.0, |worst, part| worst.max(part.1)),
            Combine::Project { hidden } => hidden as f32 * product(parts[0], parts[1]),
        }
    }
}

/// A technique's lookup as data: one [`RowMap`] per id-indexed table and
/// the [`Combine`] over the rows they select.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Recipe {
    /// `maps[k]` picks the row of table `k` an id reads.
    pub maps: Vec<RowMap>,
    /// What the selected rows become.
    pub combine: Combine,
}

impl Recipe {
    /// A recipe over `maps` combined by `combine`.
    pub fn new(maps: impl Into<Vec<RowMap>>, combine: Combine) -> Self {
        Recipe {
            maps: maps.into(),
            combine,
        }
    }

    /// Tables the recipe reads: one per map, plus
    /// [`Project`](Combine::Project)'s projection.
    pub fn table_count(&self) -> usize {
        self.maps.len() + usize::from(matches!(self.combine, Combine::Project { .. }))
    }

    /// Checks that tables of the given `(rows, cols)` shapes are exactly
    /// what this recipe reads for ids `0..vocab` and `dim` output values:
    /// the part count the combine takes, every map's row range, and
    /// column widths that compose to `dim`. A recipe that passes can be
    /// executed over those tables without a bounds failure.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] showing the recipe and the shapes.
    pub fn check(&self, vocab: usize, dim: usize, shapes: &[(usize, usize)]) -> Result<()> {
        let parts = self.maps.len();
        let parts_fit = match self.combine {
            Combine::Row | Combine::OneHotMatmul | Combine::Project { .. } => parts == 1,
            Combine::ScaleMul | Combine::Mul => parts == 2,
            Combine::ScaleAdd => parts == 3,
            Combine::Concat => parts > 0 && dim.is_multiple_of(parts),
        };
        let table_fits = |(k, map): (usize, &RowMap)| {
            let cols = match self.combine {
                Combine::ScaleMul | Combine::ScaleAdd if k > 0 => 1,
                Combine::Concat => dim / parts,
                Combine::Project { hidden } => hidden,
                _ => dim,
            };
            cols > 0 && map.rows(vocab).map(|rows| (rows, cols)) == Some(shapes[k])
        };
        let projection_fits = match self.combine {
            Combine::Project { hidden } => shapes.last() == Some(&(hidden, dim)),
            _ => true,
        };
        let fits = vocab > 0
            && dim > 0
            && parts_fit
            && shapes.len() == self.table_count()
            && self.maps.iter().enumerate().all(table_fits)
            && projection_fits;
        if fits {
            return Ok(());
        }
        Err(CoreError::BadConfig {
            context: format!(
                "{self:?} does not read tables shaped {shapes:?} as {vocab} ids of {dim} values"
            ),
        })
    }

    /// The one executor: writes the embedding of `id` into `out`
    /// (`dim` values, overwritten). `read_row(k, r, buf)` fills `buf` with
    /// row `r` of table `k` — `buf.len()` is that table's width — from
    /// whatever storage the caller keeps its tables in. `scratch` holds
    /// the second operand of [`Mul`](Combine::Mul) /
    /// [`Project`](Combine::Project) / [`OneHotMatmul`](Combine::OneHotMatmul)
    /// and is untouched by the other combines, so a caller that reuses it
    /// reads rows without allocating.
    ///
    /// The loops are plain multiply-then-add (no FMA) in a fixed order:
    /// every caller gets the same bits from the same table values. The
    /// caller has [`check`](Self::check)ed the recipe against its tables
    /// and `id` against its vocabulary.
    ///
    /// # Errors
    ///
    /// Propagates `read_row`'s error.
    pub fn row_into<E>(
        &self,
        id: usize,
        mut read_row: impl FnMut(usize, usize, &mut [f32]) -> std::result::Result<(), E>,
        scratch: &mut Vec<f32>,
        out: &mut [f32],
    ) -> std::result::Result<(), E> {
        let row = |k: usize| self.maps[k].row(id);
        let mut scalar = [0f32; 1];
        match self.combine {
            Combine::Row => read_row(0, row(0), out)?,
            Combine::ScaleMul => {
                read_row(0, row(0), out)?;
                read_row(1, row(1), &mut scalar)?;
                let v = scalar[0];
                out.iter_mut().for_each(|x| *x *= v);
            }
            Combine::ScaleAdd => {
                read_row(0, row(0), out)?;
                read_row(1, row(1), &mut scalar)?;
                let v = scalar[0];
                read_row(2, row(2), &mut scalar)?;
                let w = scalar[0];
                out.iter_mut().for_each(|x| *x = *x * v + w);
            }
            Combine::Mul => {
                read_row(0, row(0), out)?;
                scratch.resize(out.len(), 0.0);
                read_row(1, row(1), scratch)?;
                out.iter_mut().zip(&*scratch).for_each(|(x, &b)| *x *= b);
            }
            Combine::Concat => {
                let width = out.len() / self.maps.len();
                for (k, part) in out.chunks_exact_mut(width).enumerate() {
                    read_row(k, row(k), part)?;
                }
            }
            Combine::Project { hidden } => {
                scratch.resize(hidden + out.len(), 0.0);
                let (code, lift) = scratch.split_at_mut(hidden);
                read_row(0, row(0), code)?;
                out.fill(0.0);
                for (h, &c) in code.iter().enumerate() {
                    read_row(1, h, lift)?;
                    out.iter_mut().zip(&*lift).for_each(|(x, &b)| *x += c * b);
                }
            }
            Combine::OneHotMatmul => {
                scratch.resize(out.len(), 0.0);
                read_row(0, row(0), scratch)?;
                out.iter_mut()
                    .zip(&*scratch)
                    .for_each(|(x, &k)| *x = 0.0 + 1.0 * k);
            }
        }
        Ok(())
    }

    /// The executor differentiated: adds to `tables` the gradient of
    /// every row [`row_into`](Self::row_into) reads for `id`, given
    /// `grad = ∂L/∂E(id)` (`dim` values). Like the executor it is plain
    /// multiply-then-add in a fixed order, so the same gradients give the
    /// same bits.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tensor`] for a row past its table, which a
    /// recipe [`check`](Self::check)ed against `tables` never reads.
    pub fn backward(&self, id: usize, grad: &[f32], tables: &mut [ParamTable]) -> Result<()> {
        let row = |k: usize| self.maps[k].row(id);
        match self.combine {
            Combine::Row | Combine::OneHotMatmul => tables[0].add_grad(row(0), grad),
            Combine::ScaleMul | Combine::ScaleAdd => {
                let (r, s) = (row(0), row(1));
                let v = tables[1].row(s)?[0];
                // ∂/∂T0 = g·v; ∂/∂T1 = ⟨g, T0[r]⟩ (the broadcast sums over e).
                let du: Vec<f32> = grad.iter().map(|&g| g * v).collect();
                let dv: f32 = grad
                    .iter()
                    .zip(tables[0].row(r)?)
                    .map(|(&g, &u)| g * u)
                    .sum();
                tables[0].add_grad(r, &du);
                tables[1].add_grad(s, &[dv]);
                if self.combine == Combine::ScaleAdd {
                    tables[2].add_grad(row(2), &[grad.iter().sum()]);
                }
            }
            Combine::Mul => {
                // Product rule per element: each side gets g ⊙ the other.
                let (a, b) = (row(0), row(1));
                let times = |other: &[f32]| -> Vec<f32> {
                    grad.iter().zip(other).map(|(&g, &x)| g * x).collect()
                };
                let da = times(tables[1].row(b)?);
                let db = times(tables[0].row(a)?);
                tables[0].add_grad(a, &da);
                tables[1].add_grad(b, &db);
            }
            Combine::Concat => {
                let width = grad.len() / self.maps.len();
                for (k, part) in grad.chunks_exact(width).enumerate() {
                    tables[k].add_grad(row(k), part);
                }
            }
            Combine::Project { hidden } => {
                let [codes, projection] = tables else {
                    unreachable!("a checked projection recipe reads two tables");
                };
                let r = row(0);
                // ∂/∂code[h] = ⟨g, B[h]⟩.
                let mut dcode = vec![0f32; hidden];
                for (h, d) in dcode.iter_mut().enumerate() {
                    *d = grad
                        .iter()
                        .zip(projection.row(h)?)
                        .map(|(&g, &b)| g * b)
                        .sum();
                }
                // ∂/∂B[h] = code[h]·g, for the code values that are not zero.
                let mut lift = vec![0f32; grad.len()];
                for (h, &c) in codes.row(r)?.iter().enumerate() {
                    if c == 0.0 {
                        continue;
                    }
                    lift.iter_mut().zip(grad).for_each(|(x, &g)| *x = c * g);
                    projection.add_grad(h, &lift);
                }
                codes.add_grad(r, &dcode);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{CompressorState, EmbeddingCompressor};
    use crate::hashing::splitmix64;
    use memcom_nn::Sgd;
    use memcom_tensor::Tensor;
    use proptest::prelude::*;

    /// Table `k`, row `r` holds `10·k + r + 0.5·c` in column `c`.
    fn read(k: usize, r: usize, buf: &mut [f32]) -> std::result::Result<(), ()> {
        for (c, x) in buf.iter_mut().enumerate() {
            *x = (10 * k + r) as f32 + 0.5 * c as f32;
        }
        Ok(())
    }

    fn run(recipe: &Recipe, id: usize, dim: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; dim];
        recipe
            .row_into(id, read, &mut Vec::new(), &mut out)
            .unwrap();
        out
    }

    #[test]
    fn executor_matches_the_closed_form_of_every_combine() {
        let id = 7;
        let m = RowMap::Mod(3); // row 1
        let i = RowMap::Identity; // row 7
        let d = RowMap::Div(3); // row 2
        let recipe = |maps: &[RowMap], combine| Recipe::new(maps, combine);
        assert_eq!(run(&recipe(&[m], Combine::Row), id, 2), [1.0, 1.5]);
        assert_eq!(run(&recipe(&[m], Combine::OneHotMatmul), id, 2), [1.0, 1.5]);
        // u · v with v = T1[7][0] = 17.
        assert_eq!(
            run(&recipe(&[m, i], Combine::ScaleMul), id, 2),
            [17.0, 25.5]
        );
        // … + w with w = T2[7][0] = 27.
        assert_eq!(
            run(&recipe(&[m, i, i], Combine::ScaleAdd), id, 2),
            [44.0, 52.5]
        );
        // T0[1] ⊙ T1[2].
        assert_eq!(
            run(&recipe(&[m, d], Combine::Mul), id, 2),
            [12.0, 1.5 * 12.5]
        );
        // T0[1] ‖ T1[2] ‖ T2[7], one column each.
        assert_eq!(
            run(&recipe(&[m, d, i], Combine::Concat), id, 3),
            [1.0, 12.0, 27.0]
        );
        // code T0[1] = [1, 1.5] lifted by T1 rows 0 and 1.
        let projected = run(&recipe(&[m], Combine::Project { hidden: 2 }), id, 2);
        assert_eq!(
            projected,
            [1.0 * 10.0 + 1.5 * 11.0, 1.0 * 10.5 + 1.5 * 11.5]
        );
    }

    /// A compressor that is nothing but its state: a bare recipe to train.
    struct Bare(CompressorState);

    impl EmbeddingCompressor for Bare {
        fn state(&self) -> &CompressorState {
            &self.0
        }
        fn state_mut(&mut self) -> &mut CompressorState {
            &mut self.0
        }
        fn method_name(&self) -> &'static str {
            "bare"
        }
    }

    /// What [`Recipe::backward`] adds for `id` given `grad` to tables of
    /// `shapes` (9 ids) holding [`read`]'s values: per table, each row it
    /// moves and by how much — its step under `Sgd::new(1.0)`, exact at
    /// these magnitudes.
    #[allow(clippy::type_complexity)]
    fn gradient(
        recipe: Recipe,
        shapes: &[(usize, usize)],
        id: usize,
        grad: &[f32],
    ) -> Vec<Vec<(usize, Vec<f32>)>> {
        let dense = |k: usize| match recipe.combine {
            Combine::OneHotMatmul => true,
            Combine::Project { .. } => k == recipe.maps.len(),
            _ => false,
        };
        let tables = shapes.iter().enumerate().map(|(k, &(rows, cols))| {
            let mut values = vec![0f32; rows * cols];
            for (r, row) in values.chunks_exact_mut(cols).enumerate() {
                read(k, r, row).unwrap();
            }
            let tensor = Tensor::from_vec(values, &[rows, cols]).unwrap();
            if dense(k) {
                ParamTable::dense("t", tensor)
            } else {
                ParamTable::sparse("t", tensor)
            }
        });
        let mut bare = Bare(CompressorState::new(
            9,
            grad.len(),
            tables.collect(),
            recipe,
        ));
        let before: Vec<Tensor> = bare.tables().iter().map(|t| t.tensor.clone()).collect();
        bare.accumulate_row(id, grad).unwrap();
        bare.apply_gradients(&mut Sgd::new(1.0)).unwrap();
        let after = bare.tables();
        let moved = |(before, after): (&Tensor, &Tensor)| {
            (0..before.shape().dims()[0])
                .filter_map(|r| {
                    let (b, a) = (before.row(r).unwrap(), after.row(r).unwrap());
                    let step: Vec<f32> = b.iter().zip(a).map(|(b, a)| b - a).collect();
                    step.iter().any(|&x| x != 0.0).then_some((r, step))
                })
                .collect()
        };
        before
            .iter()
            .zip(after.iter().map(|t| t.tensor))
            .map(moved)
            .collect()
    }

    #[test]
    fn backward_matches_the_closed_form_of_every_combine() {
        let id = 7;
        let (m, i, d) = (RowMap::Mod(3), RowMap::Identity, RowMap::Div(3)); // rows 1, 7, 2
        let g = [1.0, 2.0];
        let recipe = |maps: &[RowMap], combine| Recipe::new(maps, combine);
        // The whole gradient lands on the row read (a dense kernel's too).
        for combine in [Combine::Row, Combine::OneHotMatmul] {
            let row = gradient(recipe(&[m], combine), &[(3, 2)], id, &g);
            assert_eq!(row, [vec![(1, vec![1.0, 2.0])]], "{combine:?}");
        }
        // T0[1] gets g·v with v = T1[7] = 17; T1[7] gets ⟨g, T0[1]⟩ = 1 + 2·1.5.
        let scaled = [vec![(1, vec![17.0, 34.0])], vec![(7, vec![4.0])]];
        let shapes = [(3, 2), (9, 1), (9, 1)];
        assert_eq!(
            gradient(recipe(&[m, i], Combine::ScaleMul), &shapes[..2], id, &g),
            scaled
        );
        // … and T2[7] gets Σ g.
        let biased = gradient(recipe(&[m, i, i], Combine::ScaleAdd), &shapes, id, &g);
        assert_eq!(biased[..2], scaled);
        assert_eq!(biased[2], [(7, vec![3.0])]);
        // Each factor gets g ⊙ the other: T1[2] = [12, 12.5], T0[1] = [1, 1.5].
        assert_eq!(
            gradient(recipe(&[m, d], Combine::Mul), &[(3, 2), (3, 2)], id, &g),
            [vec![(1, vec![12.0, 25.0])], vec![(2, vec![1.0, 3.0])]]
        );
        // One slice of g per table.
        let shapes = [(3, 1), (3, 1), (9, 1)];
        assert_eq!(
            gradient(
                recipe(&[m, d, i], Combine::Concat),
                &shapes,
                id,
                &[1.0, 2.0, 3.0]
            ),
            [
                vec![(1, vec![1.0])],
                vec![(2, vec![2.0])],
                vec![(7, vec![3.0])]
            ]
        );
        // Code T0[1] = [1, 1.5] gets ⟨g, T1[h]⟩ over T1 = [[10, 10.5], [11, 11.5]];
        // projection row h gets code[h]·g.
        let low_rank = recipe(&[m], Combine::Project { hidden: 2 });
        assert_eq!(
            gradient(low_rank, &[(3, 2), (2, 2)], id, &g),
            [
                vec![(1, vec![31.0, 34.0])],
                vec![(0, vec![1.0, 2.0]), (1, vec![1.5, 3.0])]
            ]
        );
    }

    #[test]
    fn one_hot_matmul_normalises_negative_zero_like_the_dense_product() {
        let minus_zero = |_: usize, _: usize, buf: &mut [f32]| -> std::result::Result<(), ()> {
            buf.fill(-0.0);
            Ok(())
        };
        let mut out = [f32::NAN; 2];
        let scratch = &mut Vec::new();
        let recipe = Recipe::new([RowMap::Mod(3)], Combine::OneHotMatmul);
        recipe.row_into(1, minus_zero, scratch, &mut out).unwrap();
        assert!(out.iter().all(|x| x.to_bits() == 0));
        let recipe = Recipe::new([RowMap::Mod(3)], Combine::Row);
        recipe.row_into(1, minus_zero, scratch, &mut out).unwrap();
        assert!(out.iter().all(|x| x.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    fn check_accepts_exact_shapes_and_names_each_mismatch() {
        let memcom = Recipe::new(
            [RowMap::Mod(10), RowMap::Identity, RowMap::Identity],
            Combine::ScaleAdd,
        );
        let shapes = [(10, 8), (50, 1), (50, 1)];
        memcom.check(50, 8, &shapes).unwrap();
        for (case, vocab, dim, shapes) in [
            ("shared rows", 50, 8, vec![(11, 8), (50, 1), (50, 1)]),
            ("scalar width", 50, 8, vec![(10, 8), (50, 2), (50, 1)]),
            ("scalar rows", 50, 8, vec![(10, 8), (49, 1), (50, 1)]),
            ("missing bias", 50, 8, vec![(10, 8), (50, 1)]),
            ("dim", 50, 4, shapes.to_vec()),
            ("empty vocabulary", 0, 8, shapes.to_vec()),
        ] {
            assert!(memcom.check(vocab, dim, &shapes).is_err(), "{case}");
        }
        let qr = Recipe::new([RowMap::Mod(10), RowMap::Div(10)], Combine::Concat);
        qr.check(45, 8, &[(10, 4), (5, 4)]).unwrap();
        assert!(
            qr.check(45, 8, &[(10, 4), (4, 4)]).is_err(),
            "quotient rows"
        );
        assert!(qr.check(45, 7, &[(10, 4), (5, 4)]).is_err(), "odd dim");
        let zero = Recipe::new([RowMap::Mod(0)], Combine::Row);
        assert!(zero.check(45, 8, &[(0, 8)]).is_err(), "zero modulus");
        let low_rank = Recipe::new([RowMap::Identity], Combine::Project { hidden: 2 });
        low_rank.check(45, 8, &[(45, 2), (2, 8)]).unwrap();
        assert!(low_rank.check(45, 8, &[(45, 2), (3, 8)]).is_err());
        assert!(low_rank.check(45, 8, &[(45, 2)]).is_err());
    }

    /// `±1`, fixed by the coordinates.
    fn sign(seed: u64, k: usize, r: usize, c: usize) -> f32 {
        let bits = splitmix64(seed ^ ((k as u64) << 40) ^ ((r as u64) << 20) ^ c as u64);
        if bits & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    proptest! {
        // Tables whose every value is `±max_abs[k]`, stored off by
        // `±err[k]` — the extremes, so aligned signs attain the bound:
        // each output value moves by at most what `Combine::error_bound`
        // composes from those two numbers per table (plus the f32
        // rounding of the two runs themselves).
        #[test]
        fn prop_stored_error_moves_a_row_by_at_most_the_composed_bound(
            seed in 0u64..10_000,
            id in 0usize..60,
            max_abs in proptest::collection::vec(0.0f32..4.0, 3),
            err in proptest::collection::vec(0.0f32..0.5, 3),
        ) {
            let (m, i, d) = (RowMap::Mod(5), RowMap::Identity, RowMap::Div(5));
            for (maps, combine) in [
                (vec![m], Combine::Row),
                (vec![m], Combine::OneHotMatmul),
                (vec![m, i], Combine::ScaleMul),
                (vec![m, i, i], Combine::ScaleAdd),
                (vec![m, d], Combine::Mul),
                (vec![m, d, i], Combine::Concat),
                (vec![i], Combine::Project { hidden: 3 }),
            ] {
                let recipe = Recipe::new(maps, combine);
                let parts: Vec<(f32, f32)> = (0..recipe.table_count())
                    .map(|k| (max_abs[k], err[k]))
                    .collect();
                let row = |off_by: f32| {
                    let read = |k: usize, r: usize, buf: &mut [f32]| {
                        for (c, x) in buf.iter_mut().enumerate() {
                            let moved = off_by * err[k] * sign(!seed, k, r, c);
                            *x = max_abs[k] * sign(seed, k, r, c) + moved;
                        }
                        Ok::<(), ()>(())
                    };
                    let mut out = vec![f32::NAN; 6];
                    recipe.row_into(id, read, &mut Vec::new(), &mut out).unwrap();
                    out
                };
                let bound = combine.error_bound(&parts);
                for (exact, stored) in row(0.0).iter().zip(row(1.0)) {
                    prop_assert!(
                        (exact - stored).abs() <= bound * (1.0 + 1e-5) + 1e-5,
                        "{:?}: {} vs {} (bound {})", combine, exact, stored, bound
                    );
                }
            }
        }
    }
}
