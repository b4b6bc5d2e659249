//! The reduction's attribute scheme.
//!
//! "For each A ∈ S, the relations A′ and A″; and additional relations E and
//! E′. (These equivalence relations are the attributes of the dependencies,
//! so if S contains n symbols, the relation will have 2n + 2 attributes.)"

use td_core::ids::AttrId;
use td_core::schema::Schema;
use td_semigroup::alphabet::Alphabet;
use td_semigroup::symbol::Sym;

use crate::error::Result;

/// The `2n+2`-attribute schema derived from an alphabet, with typed lookups
/// for `E`, `E′`, and each symbol's `A′` / `A″`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionAttrs {
    schema: Schema,
    alphabet: Alphabet,
    e: AttrId,
    e_prime: AttrId,
    prime: Vec<AttrId>,
    dprime: Vec<AttrId>,
}

impl ReductionAttrs {
    /// Builds the schema. Attribute order: `E`, `E′`, then `A′`, `A″` per
    /// symbol in alphabet order. Leading `_`s keep the names distinct: a
    /// symbol whose primed names an earlier symbol already took gets
    /// escaped ones (after `X`, whose double prime is `X''`, the symbol
    /// `X'` gets `_X''` and `_X'''`), and if some symbol is literally named
    /// `E`, the two base attributes become `_E`, `_E'`. Alphabets with no
    /// such clash keep the plain names.
    ///
    /// # Errors
    ///
    /// Propagates schema construction errors (duplicate attribute names —
    /// prevented by the escaping for any valid alphabet).
    pub fn new(alphabet: &Alphabet) -> Result<Self> {
        let mut symbol_attr_names: Vec<String> = Vec::with_capacity(2 * alphabet.len());
        for s in alphabet.syms() {
            let mut prime = format!("{}'", alphabet.name(s));
            let mut dprime = format!("{prime}'");
            while symbol_attr_names.contains(&prime) || symbol_attr_names.contains(&dprime) {
                prime.insert(0, '_');
                dprime.insert(0, '_');
            }
            symbol_attr_names.push(prime);
            symbol_attr_names.push(dprime);
        }
        // Pick a base name for E that cannot collide with any primed name.
        let mut base = "E".to_owned();
        while symbol_attr_names.contains(&format!("{base}'")) || symbol_attr_names.contains(&base) {
            base.insert(0, '_');
        }
        let e_name = base.clone();
        let e_prime_name = format!("{base}'");

        let mut names = Vec::with_capacity(2 * alphabet.len() + 2);
        names.push(e_name);
        names.push(e_prime_name);
        names.extend(symbol_attr_names);
        let schema = Schema::new("R", names)?;

        let prime: Vec<AttrId> = (0..alphabet.len())
            .map(|i| AttrId::from(2 + 2 * i))
            .collect();
        let dprime: Vec<AttrId> = (0..alphabet.len())
            .map(|i| AttrId::from(3 + 2 * i))
            .collect();
        Ok(Self {
            schema,
            alphabet: alphabet.clone(),
            e: AttrId::from(0usize),
            e_prime: AttrId::from(1usize),
            prime,
            dprime,
        })
    }

    /// The derived schema (`2n+2` attributes).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The alphabet this scheme was built from.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The base-row relation `E`.
    pub fn e(&self) -> AttrId {
        self.e
    }

    /// The apex-row relation `E′`.
    pub fn e_prime(&self) -> AttrId {
        self.e_prime
    }

    /// The relation `A′` for symbol `sym` (apex ↔ left base point).
    pub fn prime(&self, sym: Sym) -> AttrId {
        self.prime[sym.index()]
    }

    /// The relation `A″` for symbol `sym` (apex ↔ right base point).
    pub fn dprime(&self, sym: Sym) -> AttrId {
        self.dprime[sym.index()]
    }

    /// Number of attributes: always `2·|S| + 2`.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_alphabet_scheme() {
        let alphabet = Alphabet::standard(2); // A0 A1 0 — n = 3
        let attrs = ReductionAttrs::new(&alphabet).unwrap();
        assert_eq!(attrs.arity(), 2 * 3 + 2);
        assert_eq!(attrs.schema().attr_name(attrs.e()), "E");
        assert_eq!(attrs.schema().attr_name(attrs.e_prime()), "E'");
        let a0 = alphabet.a0();
        assert_eq!(attrs.schema().attr_name(attrs.prime(a0)), "A0'");
        assert_eq!(attrs.schema().attr_name(attrs.dprime(a0)), "A0''");
        let zero = alphabet.zero();
        assert_eq!(attrs.schema().attr_name(attrs.prime(zero)), "0'");
        assert_eq!(attrs.schema().attr_name(attrs.dprime(zero)), "0''");
    }

    #[test]
    fn attribute_count_is_2n_plus_2() {
        for n_regular in 1..=5 {
            let alphabet = Alphabet::standard(n_regular);
            let attrs = ReductionAttrs::new(&alphabet).unwrap();
            assert_eq!(attrs.arity(), 2 * alphabet.len() + 2);
        }
    }

    #[test]
    fn symbol_named_e_does_not_collide() {
        let alphabet = Alphabet::new(["A0", "E", "0"], "A0", "0").unwrap();
        let attrs = ReductionAttrs::new(&alphabet).unwrap();
        // Base attributes were renamed away from the symbol attrs E', E''.
        assert_eq!(attrs.schema().attr_name(attrs.e()), "_E");
        assert_eq!(attrs.schema().attr_name(attrs.e_prime()), "_E'");
        assert_eq!(attrs.arity(), 8);
        // All names distinct (Schema::new would have failed otherwise).
        let e_sym = alphabet.sym("E").unwrap();
        assert_eq!(attrs.schema().attr_name(attrs.prime(e_sym)), "E'");
    }

    #[test]
    fn primed_symbol_names_do_not_collide() {
        // `A0''` is both the double prime of `A0` and the single prime
        // of `A0'`.
        let alphabet = Alphabet::new(["A0", "A0'", "0"], "A0", "0").unwrap();
        let attrs = ReductionAttrs::new(&alphabet).unwrap();
        let name = |a| attrs.schema().attr_name(a).to_owned();
        let primed = alphabet.sym("A0'").unwrap();
        assert_eq!(name(attrs.dprime(alphabet.a0())), "A0''");
        assert_eq!(name(attrs.prime(primed)), "_A0''");
        assert_eq!(name(attrs.dprime(primed)), "_A0'''");
        assert_eq!(name(attrs.e()), "E");
        assert_eq!(attrs.arity(), 8);
    }

    #[test]
    fn all_attrs_distinct() {
        let alphabet = Alphabet::standard(3);
        let attrs = ReductionAttrs::new(&alphabet).unwrap();
        let mut seen = std::collections::HashSet::new();
        seen.insert(attrs.e());
        seen.insert(attrs.e_prime());
        for s in alphabet.syms() {
            seen.insert(attrs.prime(s));
            seen.insert(attrs.dprime(s));
        }
        assert_eq!(seen.len(), attrs.arity());
    }
}
