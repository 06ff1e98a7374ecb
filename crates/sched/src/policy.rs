//! Frontier's job scheduling policy (paper Table VII): five job-size
//! classes with node ranges and maximum walltimes.

/// Total nodes of the full Frontier system the Table VII ranges refer to.
pub const FRONTIER_NODES: usize = 9408;

/// Job-size classes A–E from the paper's Table VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JobSizeClass {
    /// 5645–9408 nodes, 12 h walltime.
    A,
    /// 1882–5644 nodes, 12 h walltime.
    B,
    /// 184–1881 nodes, 12 h walltime.
    C,
    /// 92–183 nodes, 6 h walltime.
    D,
    /// 1–91 nodes, 2 h walltime.
    E,
}

impl JobSizeClass {
    /// All classes, largest first (the paper's ordering).
    pub fn all() -> [JobSizeClass; 5] {
        [
            JobSizeClass::A,
            JobSizeClass::B,
            JobSizeClass::C,
            JobSizeClass::D,
            JobSizeClass::E,
        ]
    }

    /// Inclusive node-count range of the class (Table VII).
    pub fn node_range(self) -> (usize, usize) {
        match self {
            JobSizeClass::A => (5645, 9408),
            JobSizeClass::B => (1882, 5644),
            JobSizeClass::C => (184, 1881),
            JobSizeClass::D => (92, 183),
            JobSizeClass::E => (1, 91),
        }
    }

    /// Maximum walltime in hours (Table VII).
    pub fn max_walltime_h(self) -> f64 {
        match self {
            JobSizeClass::A | JobSizeClass::B | JobSizeClass::C => 12.0,
            JobSizeClass::D => 6.0,
            JobSizeClass::E => 2.0,
        }
    }

    /// Single-letter label.
    pub fn label(self) -> char {
        match self {
            JobSizeClass::A => 'A',
            JobSizeClass::B => 'B',
            JobSizeClass::C => 'C',
            JobSizeClass::D => 'D',
            JobSizeClass::E => 'E',
        }
    }

    /// Index 0..5 (A = 0), for dense per-class tables.
    pub fn index(self) -> usize {
        match self {
            JobSizeClass::A => 0,
            JobSizeClass::B => 1,
            JobSizeClass::C => 2,
            JobSizeClass::D => 3,
            JobSizeClass::E => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_machine_without_gaps() {
        let mut prev_hi = 0usize;
        for class in JobSizeClass::all().iter().rev() {
            let (lo, hi) = class.node_range();
            assert_eq!(lo, prev_hi + 1, "gap below class {:?}", class);
            prev_hi = hi;
        }
        assert_eq!(prev_hi, 9408);
    }

    #[test]
    fn classification_matches_table_vii() {
        assert_eq!(JobSizeClass::A.node_range(), (5645, 9408));
        assert_eq!(JobSizeClass::B.node_range(), (1882, 5644));
        assert_eq!(JobSizeClass::C.node_range(), (184, 1881));
        assert_eq!(JobSizeClass::D.node_range(), (92, 183));
        assert_eq!(JobSizeClass::E.node_range(), (1, 91));
    }

    #[test]
    fn walltimes_match_table_vii() {
        assert_eq!(JobSizeClass::A.max_walltime_h(), 12.0);
        assert_eq!(JobSizeClass::D.max_walltime_h(), 6.0);
        assert_eq!(JobSizeClass::E.max_walltime_h(), 2.0);
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, c) in JobSizeClass::all().iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
