//! Dependency diagrams (Fagin–Maier–Ullman–Yannakakis notation).
//!
//! "A dependency with k antecedents and one conclusion is represented by an
//! undirected graph with k + 1 nodes. The nodes represent tuples in the
//! relation, and the labels of edges are attributes on which those tuples
//! agree … each type of edge label represents an equivalence relation;
//! implied edges may be omitted in diagrams to avoid clutter. A numbered
//! node is an antecedent, and the node labelled * is the conclusion."
//!
//! [`Diagram`] is that graph; it converts losslessly to and from [`Td`]
//! (up to per-column variable renaming and omission of implied edges).

use std::collections::BTreeSet;

use crate::error::{CoreError, Result};
use crate::ids::{AttrId, Var};
use crate::schema::Schema;
use crate::td::{Td, TdRow};
use crate::union_find::UnionFind;

/// An undirected labelled multigraph over template nodes. Node ids run
/// `0..node_count`; exactly one node is the conclusion (`*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagram {
    schema: Schema,
    node_count: usize,
    conclusion: usize,
    /// Normalized edges `(min, max, attr)`.
    edges: BTreeSet<(usize, usize, AttrId)>,
}

impl Diagram {
    /// Creates an edgeless diagram with `node_count` nodes, of which
    /// `conclusion` is the `*` node.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::InvalidDiagram`] when `node_count < 2` or
    /// `conclusion` is out of range.
    pub fn new(schema: Schema, node_count: usize, conclusion: usize) -> Result<Self> {
        if node_count < 2 {
            return Err(CoreError::InvalidDiagram(
                "a diagram needs at least one antecedent and one conclusion node".into(),
            ));
        }
        if conclusion >= node_count {
            return Err(CoreError::InvalidDiagram(format!(
                "conclusion node {conclusion} out of range (have {node_count} nodes)"
            )));
        }
        Ok(Self {
            schema,
            node_count,
            conclusion,
            edges: BTreeSet::new(),
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of nodes (antecedents + 1).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The conclusion (`*`) node id.
    pub fn conclusion_node(&self) -> usize {
        self.conclusion
    }

    /// The explicit edges `(a, b, attr)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, AttrId)> + '_ {
        self.edges.iter().copied()
    }

    /// Number of explicit edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an edge: nodes `a` and `b` agree on `attr`.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::InvalidDiagram`] when either node or the
    /// attribute is out of range, or on a self-loop.
    pub fn add_edge(&mut self, a: usize, b: usize, attr: AttrId) -> Result<()> {
        if a >= self.node_count || b >= self.node_count {
            return Err(CoreError::InvalidDiagram(format!(
                "edge ({a},{b}) out of range (have {} nodes)",
                self.node_count
            )));
        }
        if a == b {
            return Err(CoreError::InvalidDiagram(
                "self-loops are meaningless (a tuple always agrees with itself)".into(),
            ));
        }
        if attr.index() >= self.schema.arity() {
            return Err(CoreError::InvalidDiagram(format!(
                "attribute {attr} out of range for schema {}",
                self.schema.summary()
            )));
        }
        self.edges.insert((a.min(b), a.max(b), attr));
        Ok(())
    }

    /// Per-attribute equivalence classes generated by the explicit edges
    /// (i.e. including implied/transitive agreements).
    fn partitions(&self) -> Vec<UnionFind> {
        let mut parts: Vec<UnionFind> = (0..self.schema.arity())
            .map(|_| UnionFind::new(self.node_count))
            .collect();
        for &(a, b, attr) in &self.edges {
            parts[attr.index()].union(a, b);
        }
        parts
    }

    /// `true` if nodes `a` and `b` agree on `attr`, directly or by
    /// transitivity ("implied edges").
    pub fn agree(&self, a: usize, b: usize, attr: AttrId) -> bool {
        if a >= self.node_count || b >= self.node_count {
            return false;
        }
        self.partitions()[attr.index()].same_immutable(a, b)
    }

    /// Returns the diagram with all implied edges made explicit (the
    /// transitive closure of each attribute's agreement relation).
    pub fn closure(&self) -> Diagram {
        let parts = self.partitions();
        let mut out = self.clone();
        for (ci, uf) in parts.iter().enumerate() {
            for class in uf.classes() {
                for i in 0..class.len() {
                    for j in i + 1..class.len() {
                        out.edges.insert((class[i], class[j], AttrId::from(ci)));
                    }
                }
            }
        }
        out
    }

    /// Returns a diagram denoting the same dependency with a **minimal**
    /// explicit edge set: per attribute, one spanning tree per equivalence
    /// class ("implied edges may be omitted in diagrams to avoid clutter").
    pub fn minimized(&self) -> Diagram {
        let parts = self.partitions();
        let mut out = self.clone();
        out.edges.clear();
        for (ci, uf) in parts.iter().enumerate() {
            for class in uf.classes() {
                // Star from the smallest member: |class|-1 edges.
                for &other in &class[1..] {
                    out.edges.insert((class[0], other, AttrId::from(ci)));
                }
            }
        }
        out
    }

    /// Builds the diagram of a dependency: antecedent `i` becomes node `i`,
    /// the conclusion becomes the last node; an edge `(i, j, A)` is added
    /// whenever rows `i` and `j` use the same variable in column `A`.
    pub fn from_td(td: &Td) -> Diagram {
        let k = td.antecedent_count();
        let mut d = Diagram::new(td.schema().clone(), k + 1, k)
            .expect("k >= 1 antecedents so k+1 >= 2 nodes");
        let rows: Vec<&TdRow> = td
            .antecedents()
            .iter()
            .chain(std::iter::once(td.conclusion()))
            .collect();
        for col in td.schema().attr_ids() {
            for i in 0..rows.len() {
                for j in i + 1..rows.len() {
                    if rows[i].get(col) == rows[j].get(col) {
                        d.add_edge(i, j, col).expect("indices in range");
                    }
                }
            }
        }
        d
    }

    /// Rebuilds the dependency this diagram denotes. Nodes other than the
    /// conclusion become antecedent rows in node order; each equivalence
    /// class of each attribute becomes one variable. Conclusion components
    /// whose class contains no antecedent node come out existentially
    /// quantified — exactly the paper's reading ("the * tuple has
    /// existentially quantified components on any attributes that do not
    /// label edges (or implied edges) joining that tuple to others").
    ///
    /// # Errors
    ///
    /// Fails only if the rebuilt dependency is rejected by [`Td::new`]
    /// (cannot happen for a diagram that validated its nodes and edges).
    pub fn to_td(&self, name: impl Into<String>) -> Result<Td> {
        // `labels[c * n + i]` is node `i`'s variable in column `c`. An
        // edgeless column keeps the identity labelling (node `i` gets
        // variable `i`), which is what first-appearance numbering of
        // singletons gives. The other columns are union–found in place,
        // always linking the larger root under the smaller, so every
        // parent index is at most its child's; one ascending pass then
        // points each node at its root, and a second renumbers roots in
        // first-appearance order.
        let n = self.node_count;
        let arity = self.schema.arity();
        let mut labels: Vec<u32> = (0..arity).flat_map(|_| 0..n as u32).collect();
        let mut touched = vec![false; arity];
        for &(a, b, attr) in &self.edges {
            let c = attr.index();
            touched[c] = true;
            let col = &mut labels[c * n..(c + 1) * n];
            let (ra, rb) = (root(col, a), root(col, b));
            col[ra.max(rb)] = ra.min(rb) as u32;
        }
        let mut dense = vec![0u32; n];
        for c in (0..arity).filter(|&c| touched[c]) {
            let col = &mut labels[c * n..(c + 1) * n];
            let mut next = 0;
            for i in 0..n {
                let r = col[col[i] as usize];
                col[i] = r;
                if r as usize == i {
                    dense[i] = next;
                    next += 1;
                }
            }
            for l in col.iter_mut() {
                *l = dense[*l as usize];
            }
        }
        let row_of_node =
            |node: usize| TdRow::new((0..arity).map(|c| Var::new(labels[c * n + node])));
        let antecedents: Vec<TdRow> = (0..n)
            .filter(|&i| i != self.conclusion)
            .map(row_of_node)
            .collect();
        let conclusion = row_of_node(self.conclusion);
        Td::new(self.schema.clone(), antecedents, conclusion, name)
    }
}

/// The root of `x` in a column's parent array, halving the path on the way.
fn root(parent: &mut [u32], mut x: usize) -> usize {
    while parent[x] as usize != x {
        let grand = parent[parent[x] as usize];
        parent[x] = grand;
        x = grand as usize;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::td::TdBuilder;

    fn schema() -> Schema {
        Schema::new("R", ["A", "B", "C"]).unwrap()
    }

    fn fig1() -> Td {
        TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["*", "b", "c'"])
            .unwrap()
            .build("fig1")
            .unwrap()
    }

    #[test]
    fn fig1_diagram_shape() {
        // "Node 1 represents the tuple (a,b,c), node 2 the tuple (a,b',c'),
        // and node * the tuple (a*,b,c'). Nodes 1 and 2 have the same A
        // attribute, nodes 1 and * the same B attribute, and nodes 2 and *
        // the same C attribute."  (Our nodes are 0-based: 0, 1, *=2.)
        let d = Diagram::from_td(&fig1());
        assert_eq!(d.node_count(), 3);
        assert_eq!(d.conclusion_node(), 2);
        let edges: Vec<_> = d.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(d.agree(0, 1, AttrId::new(0))); // same A
        assert!(d.agree(0, 2, AttrId::new(1))); // same B
        assert!(d.agree(1, 2, AttrId::new(2))); // same C
        assert!(!d.agree(0, 2, AttrId::new(0)));
        assert!(!d.agree(0, 1, AttrId::new(1)));
    }

    #[test]
    fn roundtrip_td_diagram_td() {
        let td = fig1();
        let back = Diagram::from_td(&td).to_td("fig1-back").unwrap();
        assert!(td.eq_up_to_renaming(&back));
        assert!(back.is_embedded());
        assert_eq!(back.existential_columns(), td.existential_columns());
    }

    #[test]
    fn transitive_closure_adds_implied_edges() {
        let mut d = Diagram::new(schema(), 4, 3).unwrap();
        d.add_edge(0, 1, AttrId::new(0)).unwrap();
        d.add_edge(1, 2, AttrId::new(0)).unwrap();
        assert!(d.agree(0, 2, AttrId::new(0)), "implied edge");
        assert_eq!(d.edge_count(), 2);
        let c = d.closure();
        assert_eq!(c.edge_count(), 3);
        // Closure does not invent cross-attribute edges.
        assert!(!c.agree(0, 1, AttrId::new(1)));
    }

    #[test]
    fn closure_roundtrip_preserves_dependency() {
        let td = fig1();
        let d = Diagram::from_td(&td);
        let closed = d.closure();
        let a = d.to_td("a").unwrap();
        let b = closed.to_td("b").unwrap();
        assert!(a.eq_up_to_renaming(&b));
    }

    #[test]
    fn minimization_keeps_semantics_with_fewer_edges() {
        // A 4-node clique of E-agreements: closure has 6 edges, the
        // minimized diagram 3, and both denote the same dependency.
        let mut d = Diagram::new(schema(), 4, 3).unwrap();
        for i in 0..4 {
            for j in i + 1..4 {
                d.add_edge(i, j, AttrId::new(0)).unwrap();
            }
        }
        assert_eq!(d.edge_count(), 6);
        let min = d.minimized();
        assert_eq!(min.edge_count(), 3);
        assert!(d
            .to_td("a")
            .unwrap()
            .eq_up_to_renaming(&min.to_td("b").unwrap()));
        // Minimization then closure round-trips the agreement relation.
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    d.agree(i, j, AttrId::new(0)),
                    min.agree(i, j, AttrId::new(0))
                );
            }
        }
        // Minimization is idempotent.
        assert_eq!(min.minimized(), min);
    }

    #[test]
    fn minimization_of_fig1_is_already_minimal() {
        let d = Diagram::from_td(&fig1());
        assert_eq!(d.minimized().edge_count(), d.edge_count());
    }

    #[test]
    fn invalid_diagrams_rejected() {
        assert!(Diagram::new(schema(), 1, 0).is_err());
        assert!(Diagram::new(schema(), 3, 3).is_err());
        let mut d = Diagram::new(schema(), 3, 2).unwrap();
        assert!(d.add_edge(0, 0, AttrId::new(0)).is_err());
        assert!(d.add_edge(0, 9, AttrId::new(0)).is_err());
        assert!(d.add_edge(0, 1, AttrId::new(7)).is_err());
    }

    #[test]
    fn disconnected_conclusion_is_fully_existential() {
        // No edges at all: the conclusion shares nothing; every column is
        // existential; with one antecedent the td states "if any tuple
        // exists, some tuple exists" — trivial.
        let d = Diagram::new(schema(), 2, 1).unwrap();
        let td = d.to_td("free").unwrap();
        assert_eq!(td.existential_columns().len(), 3);
        assert!(td.is_trivial());
    }

    #[test]
    fn full_td_diagram_has_connected_conclusion_everywhere() {
        let td = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a'", "b", "c'"])
            .unwrap()
            .conclusion(["a", "b", "c'"])
            .unwrap()
            .build("full")
            .unwrap();
        let d = Diagram::from_td(&td);
        let star = d.conclusion_node();
        for col in schema().attr_ids() {
            assert!(
                (0..d.node_count() - 1).any(|n| d.agree(n, star, col)),
                "full TD: conclusion connected in every column"
            );
        }
        let back = d.to_td("back").unwrap();
        assert!(back.is_full());
    }
}
