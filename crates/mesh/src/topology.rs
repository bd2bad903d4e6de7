//! 2D mesh topology: node coordinates, directions, ports.

/// Node identifier: linear index `y * width + x` into the mesh.
/// (`Default` exists so node lists can live in inline-storage vectors;
/// the default value `n0` is not meaningful by itself.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Raw index as usize.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl wormdsm_sim::snap::Snap for NodeId {
    fn save(&self, w: &mut wormdsm_sim::snap::SnapWriter) {
        w.put_u16(self.0);
    }
    fn load(
        r: &mut wormdsm_sim::snap::SnapReader<'_>,
    ) -> Result<Self, wormdsm_sim::snap::SnapError> {
        Ok(Self(r.get_u16()?))
    }
}

/// Coordinates in the mesh; `x` grows eastward, `y` grows southward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (0 = west edge).
    pub x: u8,
    /// Row (0 = north edge).
    pub y: u8,
}

impl Coord {
    /// Construct a coordinate.
    pub fn new(x: u8, y: u8) -> Self {
        Self { x, y }
    }
}

impl core::fmt::Display for Coord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// The four mesh link directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// +x
    East,
    /// -x
    West,
    /// -y
    North,
    /// +y
    South,
}

impl Direction {
    /// All directions, in the fixed order used for port indexing.
    pub const ALL: [Direction; 4] =
        [Direction::East, Direction::West, Direction::North, Direction::South];

    /// Dense index 0..=3, matching `Port::Dir(self).index()` — the bit
    /// position used by routing-table direction masks.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::North => 2,
            Direction::South => 3,
        }
    }

    /// The opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::North => Direction::South,
            Direction::South => Direction::North,
        }
    }
}

/// Router port: four link directions plus the local (processor) port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Link port in a mesh direction.
    Dir(Direction),
    /// Local injection/consumption port.
    Local,
}

impl Port {
    /// Dense index 0..=4 (E, W, N, S, Local) for array-indexed port state.
    pub fn index(self) -> usize {
        match self {
            Port::Dir(d) => d.index(),
            Port::Local => 4,
        }
    }

    /// Inverse of [`Port::index`].
    pub fn from_index(i: usize) -> Port {
        match i {
            0 => Port::Dir(Direction::East),
            1 => Port::Dir(Direction::West),
            2 => Port::Dir(Direction::North),
            3 => Port::Dir(Direction::South),
            4 => Port::Local,
            _ => panic!("invalid port index {i}"),
        }
    }
}

/// Number of router ports (4 directions + local).
pub const NUM_PORTS: usize = 5;

/// A `width x height` 2D mesh (the paper uses square `k x k` meshes, but the
/// model supports rectangles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh2D {
    width: u8,
    height: u8,
}

impl Mesh2D {
    /// Maximum supported mesh dimension. Coordinates are stored as `u8`
    /// and node ids as `u16`; `255 x 255 = 65025` nodes fits both, so a
    /// k=128 (16384-node) mesh has ample headroom without widening either.
    pub const MAX_DIM: usize = 255;

    /// A `width x height` mesh. Both dimensions must be in
    /// `1..=`[`Mesh2D::MAX_DIM`]; anything else panics loudly here rather
    /// than truncating into an aliased coordinate space.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            (1..=Self::MAX_DIM).contains(&width) && (1..=Self::MAX_DIM).contains(&height),
            "mesh dimensions must be 1..={} (got {width} x {height}); larger meshes would \
             truncate u8 coordinates and alias nodes",
            Self::MAX_DIM
        );
        Self { width: width as u8, height: height as u8 }
    }

    /// Square `k x k` mesh.
    pub fn square(k: usize) -> Self {
        Self::new(k, k)
    }

    /// Mesh width (columns).
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// Mesh height (rows).
    pub fn height(&self) -> usize {
        self.height as usize
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.width() * self.height()
    }

    /// Coordinate of a node id.
    pub fn coord(&self, n: NodeId) -> Coord {
        debug_assert!(n.idx() < self.nodes());
        Coord { x: (n.idx() % self.width()) as u8, y: (n.idx() / self.width()) as u8 }
    }

    /// Node id of a coordinate.
    pub fn node(&self, c: Coord) -> NodeId {
        debug_assert!((c.x as usize) < self.width() && (c.y as usize) < self.height());
        NodeId((c.y as usize * self.width() + c.x as usize) as u16)
    }

    /// Node id from raw x/y.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        self.node(Coord::new(x as u8, y as u8))
    }

    /// The neighbor of `n` in direction `d`, if it exists (mesh edges).
    pub fn neighbor(&self, n: NodeId, d: Direction) -> Option<NodeId> {
        let c = self.coord(n);
        let (x, y) = (c.x as isize, c.y as isize);
        let (nx, ny) = match d {
            Direction::East => (x + 1, y),
            Direction::West => (x - 1, y),
            Direction::North => (x, y - 1),
            Direction::South => (x, y + 1),
        };
        if nx < 0 || ny < 0 || nx >= self.width() as isize || ny >= self.height() as isize {
            None
        } else {
            Some(self.node_at(nx as usize, ny as usize))
        }
    }

    /// Manhattan distance in hops between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ca, cb) = (self.coord(a), self.coord(b));
        (ca.x.abs_diff(cb.x) as usize) + (ca.y.abs_diff(cb.y) as usize)
    }

    /// The direction of the single hop from `a` to adjacent node `b`.
    /// Panics if they are not adjacent.
    pub fn hop_direction(&self, a: NodeId, b: NodeId) -> Direction {
        let (ca, cb) = (self.coord(a), self.coord(b));
        match (cb.x as i16 - ca.x as i16, cb.y as i16 - ca.y as i16) {
            (1, 0) => Direction::East,
            (-1, 0) => Direction::West,
            (0, -1) => Direction::North,
            (0, 1) => Direction::South,
            _ => panic!("{a}@{ca} and {b}@{cb} are not adjacent"),
        }
    }

    /// Iterator over all node ids in row-major order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes() as u16).map(NodeId)
    }
}

/// Two-level mesh-of-meshes overlay: the flat `width x height` mesh is
/// carved into a grid of `chip_w x chip_h` chips. Links whose endpoints lie
/// on different chips are *inter-chip* (express) links and may carry an
/// extra traversal delay; everything else about routing is unchanged, so
/// BRCP conformance of the grouping schemes is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipGrid {
    chip_w: u8,
    chip_h: u8,
}

impl ChipGrid {
    /// A chip grid of `chip_w x chip_h`-node chips over `mesh`. Both chip
    /// dimensions must evenly divide the corresponding mesh dimension.
    pub fn new(mesh: &Mesh2D, chip_w: usize, chip_h: usize) -> Self {
        assert!(
            (1..=mesh.width()).contains(&chip_w) && mesh.width().is_multiple_of(chip_w),
            "chip width {chip_w} must divide mesh width {}",
            mesh.width()
        );
        assert!(
            (1..=mesh.height()).contains(&chip_h) && mesh.height().is_multiple_of(chip_h),
            "chip height {chip_h} must divide mesh height {}",
            mesh.height()
        );
        Self { chip_w: chip_w as u8, chip_h: chip_h as u8 }
    }

    /// Nodes per chip row.
    pub fn chip_w(&self) -> usize {
        self.chip_w as usize
    }

    /// Nodes per chip column.
    pub fn chip_h(&self) -> usize {
        self.chip_h as usize
    }

    /// Chip-grid coordinate `(cx, cy)` of a node.
    pub fn chip_of(&self, mesh: &Mesh2D, n: NodeId) -> (usize, usize) {
        let c = mesh.coord(n);
        (c.x as usize / self.chip_w(), c.y as usize / self.chip_h())
    }

    /// Linear chip index (row-major over the chip grid).
    pub fn chip_index(&self, mesh: &Mesh2D, n: NodeId) -> usize {
        let (cx, cy) = self.chip_of(mesh, n);
        cy * (mesh.width() / self.chip_w()) + cx
    }

    /// Number of chips in the grid.
    pub fn chips(&self, mesh: &Mesh2D) -> usize {
        (mesh.width() / self.chip_w()) * (mesh.height() / self.chip_h())
    }

    /// True when both nodes lie on the same chip.
    pub fn same_chip(&self, mesh: &Mesh2D, a: NodeId, b: NodeId) -> bool {
        self.chip_of(mesh, a) == self.chip_of(mesh, b)
    }

    /// True when the link leaving `n` in direction `d` crosses a chip
    /// boundary (an inter-chip express link). False when the link leaves
    /// the mesh entirely.
    pub fn crosses_boundary(&self, mesh: &Mesh2D, n: NodeId, d: Direction) -> bool {
        mesh.neighbor(n, d).is_some_and(|m| !self.same_chip(mesh, n, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_node_roundtrip() {
        let m = Mesh2D::square(8);
        for n in m.iter_nodes() {
            assert_eq!(m.node(m.coord(n)), n);
        }
        assert_eq!(m.coord(NodeId(0)), Coord::new(0, 0));
        assert_eq!(m.coord(NodeId(9)), Coord::new(1, 1));
    }

    /// Round-trip must hold at the maximum supported dimension: node ids
    /// stay within `u16` and coordinates within `u8` across the whole
    /// 255 x 255 space (and rectangles touching both extremes).
    #[test]
    fn coord_node_roundtrip_at_max_dim() {
        for (w, h) in
            [(Mesh2D::MAX_DIM, Mesh2D::MAX_DIM), (Mesh2D::MAX_DIM, 1), (1, Mesh2D::MAX_DIM)]
        {
            let m = Mesh2D::new(w, h);
            assert_eq!(m.nodes(), w * h);
            assert!(m.nodes() <= u16::MAX as usize + 1, "node ids must fit u16");
            for n in m.iter_nodes() {
                let c = m.coord(n);
                assert_eq!(m.node(c), n, "{w}x{h} node {n} coord {c}");
                assert!((c.x as usize) < w && (c.y as usize) < h);
            }
            // Corners map to the expected extremes.
            assert_eq!(m.coord(NodeId(0)), Coord::new(0, 0));
            assert_eq!(
                m.coord(NodeId((w * h - 1) as u16)),
                Coord::new((w - 1) as u8, (h - 1) as u8)
            );
        }
    }

    #[test]
    #[should_panic(expected = "mesh dimensions must be 1..=255")]
    fn oversized_mesh_is_rejected_not_truncated() {
        Mesh2D::new(256, 8);
    }

    #[test]
    #[should_panic(expected = "mesh dimensions must be 1..=255")]
    fn zero_dimension_is_rejected() {
        Mesh2D::new(8, 0);
    }

    #[test]
    fn chip_grid_partitions_the_mesh() {
        let m = Mesh2D::square(8);
        let g = ChipGrid::new(&m, 4, 4);
        assert_eq!(g.chips(&m), 4);
        assert_eq!(g.chip_of(&m, m.node_at(3, 3)), (0, 0));
        assert_eq!(g.chip_of(&m, m.node_at(4, 3)), (1, 0));
        assert_eq!(g.chip_index(&m, m.node_at(5, 6)), 3);
        assert!(g.same_chip(&m, m.node_at(0, 0), m.node_at(3, 3)));
        assert!(!g.same_chip(&m, m.node_at(3, 3), m.node_at(4, 3)));
        // Every node belongs to exactly one chip and indices are dense.
        let mut counts = vec![0usize; g.chips(&m)];
        for n in m.iter_nodes() {
            counts[g.chip_index(&m, n)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 16));
    }

    #[test]
    fn chip_grid_boundary_crossings() {
        let m = Mesh2D::square(8);
        let g = ChipGrid::new(&m, 4, 4);
        // (3,1) -> East crosses the vertical chip seam; (3,1) -> West stays.
        assert!(g.crosses_boundary(&m, m.node_at(3, 1), Direction::East));
        assert!(!g.crosses_boundary(&m, m.node_at(3, 1), Direction::West));
        // (1,3) -> South crosses the horizontal seam.
        assert!(g.crosses_boundary(&m, m.node_at(1, 3), Direction::South));
        assert!(!g.crosses_boundary(&m, m.node_at(1, 3), Direction::North));
        // Mesh-edge links cross nothing.
        assert!(!g.crosses_boundary(&m, m.node_at(0, 0), Direction::West));
        // Trivial 1-chip grid: nothing crosses.
        let whole = ChipGrid::new(&m, 8, 8);
        for n in m.iter_nodes() {
            for d in Direction::ALL {
                assert!(!whole.crosses_boundary(&m, n, d));
            }
        }
    }

    #[test]
    #[should_panic(expected = "must divide mesh width")]
    fn chip_grid_rejects_nondividing_chip() {
        ChipGrid::new(&Mesh2D::square(8), 3, 4);
    }

    #[test]
    fn rectangular_mesh_indexing() {
        let m = Mesh2D::new(4, 2);
        assert_eq!(m.nodes(), 8);
        assert_eq!(m.coord(NodeId(5)), Coord::new(1, 1));
        assert_eq!(m.node_at(3, 1), NodeId(7));
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = Mesh2D::square(4);
        let nw = m.node_at(0, 0);
        assert_eq!(m.neighbor(nw, Direction::West), None);
        assert_eq!(m.neighbor(nw, Direction::North), None);
        assert_eq!(m.neighbor(nw, Direction::East), Some(m.node_at(1, 0)));
        assert_eq!(m.neighbor(nw, Direction::South), Some(m.node_at(0, 1)));
        let se = m.node_at(3, 3);
        assert_eq!(m.neighbor(se, Direction::East), None);
        assert_eq!(m.neighbor(se, Direction::South), None);
    }

    #[test]
    fn distances_and_hop_directions() {
        let m = Mesh2D::square(8);
        let a = m.node_at(1, 2);
        let b = m.node_at(5, 7);
        assert_eq!(m.distance(a, b), 4 + 5);
        assert_eq!(m.distance(a, a), 0);
        assert_eq!(m.hop_direction(m.node_at(1, 1), m.node_at(2, 1)), Direction::East);
        assert_eq!(m.hop_direction(m.node_at(1, 1), m.node_at(1, 0)), Direction::North);
    }

    #[test]
    fn opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn port_index_roundtrip() {
        for i in 0..NUM_PORTS {
            assert_eq!(Port::from_index(i).index(), i);
        }
        for d in Direction::ALL {
            assert_eq!(Port::Dir(d).index(), d.index());
        }
    }
}
