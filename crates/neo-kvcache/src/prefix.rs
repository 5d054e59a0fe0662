//! Radix (prefix) tree over KV blocks: shared-prompt reuse at block granularity.
//!
//! Heavy online traffic is dominated by requests that share a prompt prefix — a fleet-wide
//! system prompt, or the growing history of a multi-turn session. The [`PrefixIndex`]
//! records, per KV block, which run of prompt tokens it caches, so a later request whose
//! prompt starts with the same tokens can *adopt* those blocks (bumping their reference
//! counts) instead of re-prefilling them. Partially matching tail blocks are reused
//! copy-on-write: the cached span is copied into a fresh private block so the shared block
//! is never written.
//!
//! Prompts are identified by [`TokenRun`]s — `(run id, length)` pairs — rather than raw
//! token ids: the simulator has no vocabulary, but two requests share a prefix exactly when
//! their leading runs are identical, which is how workload generators express "same system
//! prompt" or "same session history". [`expand`] flattens runs into per-token identities.
//!
//! The index itself owns no memory; it only names blocks. The [`crate::KvCacheManager`]
//! holds one allocator reference per indexed block and tells the index, through
//! [`PrefixIndex::set_pinned`], whenever a block gains or loses references from outside
//! it. From those pins the index keeps two things current at every edit instead of
//! re-deriving them from the whole tree: the count of unpinned (reclaimable) blocks, and
//! an ordered set of unpinned leaves keyed `(last_touch, block)` whose first entry is the
//! next eviction victim.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

/// A run of `len` prompt tokens with a workload-assigned identity.
///
/// Two runs with the same `id` denote the same token content; sharing is detected at run
/// granularity (plus offsets within a run), never across distinct ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TokenRun {
    /// Content identity of the run (workload-assigned; equal ids = equal tokens).
    pub id: u64,
    /// Number of tokens in the run.
    pub len: usize,
}

/// One prompt token's identity: `(run id, offset within the run)`.
pub type Token = (u64, u64);

/// Flattens runs into per-token identities, in prompt order.
pub fn expand(runs: &[TokenRun]) -> Vec<Token> {
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len).sum());
    for run in runs {
        for off in 0..run.len {
            out.push((run.id, off as u64));
        }
    }
    out
}

/// Result of a prefix lookup: the chain of fully matching blocks, plus at most one
/// partially matching block (`(block, matched_tokens)`) usable copy-on-write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixHit {
    /// Blocks whose full content matches the prompt, in prefix order.
    pub blocks: Vec<usize>,
    /// A block whose leading `len` tokens match the prompt past the full chain.
    pub partial: Option<(usize, usize)>,
}

impl PrefixHit {
    /// Tokens covered by the hit, given the index block size.
    pub fn tokens(&self, block_size: usize) -> usize {
        self.blocks.len() * block_size + self.partial.map(|(_, len)| len).unwrap_or(0)
    }
}

/// What an insertion changed: blocks the index newly references and blocks it dropped
/// (pruned partial nodes subsumed by longer content). The manager mirrors these into
/// allocator retains/releases.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Blocks the index now holds a reference to (one per newly created node).
    pub retained: Vec<usize>,
    /// Blocks the index no longer references (pruned nodes).
    pub released: Vec<usize>,
}

/// One node: a block caching `content` (1..=block_size tokens; less than a full block
/// only for leaf "tail" nodes).
#[derive(Debug, Clone)]
struct Node {
    content: Vec<Token>,
    block: usize,
    parent: Option<usize>,
    children: Vec<usize>,
    last_touch: u64,
    /// Whether something outside the index references the block (a live sequence).
    pinned: bool,
}

impl Node {
    /// Whether this node may be evicted: an unpinned leaf.
    fn evictable(&self) -> bool {
        !self.pinned && self.children.is_empty()
    }

    fn lru_key(&self) -> (u64, usize) {
        (self.last_touch, self.block)
    }
}

/// Block-granular radix tree mapping token prefixes to cached KV blocks.
#[derive(Debug, Clone, Default)]
pub struct PrefixIndex {
    block_size: usize,
    nodes: Vec<Option<Node>>,
    free_slots: Vec<usize>,
    roots: Vec<usize>,
    clock: u64,
    /// Node slot of each indexed block, indexed by the pool's dense block id.
    slot_of_block: Vec<Option<usize>>,
    /// Number of unpinned nodes, leaves or not.
    unpinned: usize,
    /// Every evictable node (unpinned leaf), keyed `(last_touch, block)`.
    lru: BTreeSet<(u64, usize)>,
}

impl PrefixIndex {
    /// Creates an empty index over blocks of `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self { block_size, ..Self::default() }
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of indexed blocks (= nodes).
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free_slots.len()
    }

    /// Whether the index holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every indexed block, in slab order (deterministic).
    pub fn blocks(&self) -> Vec<usize> {
        self.nodes.iter().flatten().map(|n| n.block).collect()
    }

    /// Number of indexed blocks nothing outside the index references (see
    /// [`Self::set_pinned`]), interior nodes included: all of them are reclaimable, since
    /// repeated [`Self::evict_lru`] calls drain unpinned subtrees bottom-up.
    pub fn unpinned_len(&self) -> usize {
        self.unpinned
    }

    /// Records whether `block` is referenced from outside the index. A pinned block is
    /// never evicted and is not counted by [`Self::unpinned_len`]. New nodes start
    /// unpinned; a no-op when `block` is not indexed.
    pub fn set_pinned(&mut self, block: usize, pinned: bool) {
        let Some(idx) = self.slot_of_block.get(block).copied().flatten() else { return };
        let node = self.node_mut(idx);
        if node.pinned == pinned {
            return;
        }
        node.pinned = pinned;
        let (key, leaf) = (node.lru_key(), node.children.is_empty());
        if pinned {
            self.unpinned -= 1;
            if leaf {
                self.lru.remove(&key);
            }
        } else {
            self.unpinned += 1;
            if leaf {
                self.lru.insert(key);
            }
        }
    }

    /// Every leaf as `(last_touch, block)`, in slab order, pinned or not.
    pub fn leaves(&self) -> Vec<(u64, usize)> {
        self.nodes.iter().flatten().filter(|n| n.children.is_empty()).map(Node::lru_key).collect()
    }

    /// The block [`Self::evict_lru`] would take next, without taking it.
    pub fn lru_victim(&self) -> Option<usize> {
        self.lru.first().map(|&(_, block)| block)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn node(&self, idx: usize) -> &Node {
        // neo-lint: allow(panic-hygiene) -- indices come from the tree's own edges; a dead slot is a structural bug that must fail loudly, not corrupt the radix tree
        self.nodes[idx].as_ref().expect("live node")
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node {
        // neo-lint: allow(panic-hygiene) -- indices come from the tree's own edges; a dead slot is a structural bug that must fail loudly, not corrupt the radix tree
        self.nodes[idx].as_mut().expect("live node")
    }

    /// Stamps a node as used at `now`, re-keying its LRU entry if it has one.
    fn touch(&mut self, idx: usize, now: u64) {
        let node = self.node_mut(idx);
        let old = node.lru_key();
        node.last_touch = now;
        if node.evictable() {
            let new = node.lru_key();
            self.lru.remove(&old);
            self.lru.insert(new);
        }
    }

    fn children_of(&self, parent: Option<usize>) -> Vec<usize> {
        match parent {
            Some(p) => self.node(p).children.clone(),
            None => self.roots.clone(),
        }
    }

    fn add_node(
        &mut self,
        parent: Option<usize>,
        content: Vec<Token>,
        block: usize,
        now: u64,
    ) -> usize {
        let node =
            Node { content, block, parent, children: Vec::new(), last_touch: now, pinned: false };
        self.lru.insert(node.lru_key());
        self.unpinned += 1;
        let idx = match self.free_slots.pop() {
            Some(slot) => {
                self.nodes[slot] = Some(node);
                slot
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        };
        match parent {
            Some(p) => {
                let parent = self.node_mut(p);
                if parent.evictable() {
                    let key = parent.lru_key();
                    self.lru.remove(&key);
                }
                self.node_mut(p).children.push(idx);
            }
            None => self.roots.push(idx),
        }
        if self.slot_of_block.len() <= block {
            self.slot_of_block.resize(block + 1, None);
        }
        debug_assert!(self.slot_of_block[block].is_none(), "block {block} indexed twice");
        self.slot_of_block[block] = Some(idx);
        idx
    }

    /// Detaches and frees a node, returning its block. The node must be a leaf.
    fn remove_node(&mut self, idx: usize) -> usize {
        // neo-lint: allow(panic-hygiene) -- indices come from the tree's own edges; a dead slot is a structural bug that must fail loudly, not corrupt the radix tree
        let node = self.nodes[idx].take().expect("live node");
        debug_assert!(node.children.is_empty(), "only leaves are removed");
        if !node.pinned {
            self.unpinned -= 1;
            self.lru.remove(&node.lru_key());
        }
        self.slot_of_block[node.block] = None;
        match node.parent {
            Some(p) => {
                let parent = self.node_mut(p);
                parent.children.retain(|&c| c != idx);
                if parent.evictable() {
                    let key = parent.lru_key();
                    self.lru.insert(key);
                }
            }
            None => self.roots.retain(|&c| c != idx),
        }
        self.free_slots.push(idx);
        node.block
    }

    /// Longest cached prefix of `tokens`: the chain of fully matching blocks plus at most
    /// one partially matching child (best common prefix; ties broken by smallest block).
    /// Touches every matched node for LRU purposes.
    pub fn lookup(&mut self, tokens: &[Token]) -> PrefixHit {
        let now = self.tick();
        let bs = self.block_size;
        let mut parent: Option<usize> = None;
        let mut blocks = Vec::new();
        let mut start = 0usize;
        loop {
            if start >= tokens.len() {
                return PrefixHit { blocks, partial: None };
            }
            let remaining = &tokens[start..];
            let child_ids = self.children_of(parent);
            if remaining.len() >= bs {
                let chunk = &remaining[..bs];
                if let Some(&c) = child_ids.iter().find(|&&c| self.node(c).content == chunk) {
                    self.touch(c, now);
                    blocks.push(self.node(c).block);
                    parent = Some(c);
                    start += bs;
                    continue;
                }
            }
            // No full-block step: find the best partially matching child.
            let mut best: Option<(usize, usize, usize)> = None; // (cpl, block, node)
            for &c in &child_ids {
                let content = &self.node(c).content;
                let cpl = content.iter().zip(remaining.iter()).take_while(|(a, b)| a == b).count();
                if cpl >= 1 {
                    let key = (cpl, self.node(c).block);
                    let better = match best {
                        None => true,
                        Some((bcpl, bblock, _)) => cpl > bcpl || (cpl == bcpl && key.1 < bblock),
                    };
                    if better {
                        best = Some((cpl, key.1, c));
                    }
                }
            }
            return match best {
                Some((cpl, block, c)) => {
                    self.touch(c, now);
                    PrefixHit { blocks, partial: Some((block, cpl)) }
                }
                None => PrefixHit { blocks, partial: None },
            };
        }
    }

    /// Registers the prompt `tokens` of a prefilled sequence, backed block-by-block by
    /// `blocks` (the sequence's block table, chunk `i` caching
    /// `tokens[i*block_size..(i+1)*block_size]`). Existing nodes with identical content
    /// are reused (touched, not re-referenced); shorter partial nodes subsumed by new
    /// content are pruned.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` has fewer entries than `tokens` needs.
    pub fn insert(&mut self, tokens: &[Token], blocks: &[usize]) -> InsertOutcome {
        assert!(
            blocks.len() * self.block_size >= tokens.len(),
            "insert needs one block per {} tokens: {} tokens, {} blocks",
            self.block_size,
            tokens.len(),
            blocks.len()
        );
        let now = self.tick();
        let bs = self.block_size;
        let mut outcome = InsertOutcome::default();
        let mut parent: Option<usize> = None;
        let mut i = 0usize;
        while i * bs < tokens.len() {
            let end = ((i + 1) * bs).min(tokens.len());
            let chunk = &tokens[i * bs..end];
            let child_ids = self.children_of(parent);
            if chunk.len() == bs {
                if let Some(&c) = child_ids.iter().find(|&&c| self.node(c).content == chunk) {
                    self.touch(c, now);
                    parent = Some(c);
                    i += 1;
                    continue;
                }
                // Prune partial siblings the new full block subsumes.
                for &c in &child_ids {
                    let n = self.node(c);
                    if n.content.len() < bs
                        && n.children.is_empty()
                        && chunk.starts_with(&n.content)
                    {
                        outcome.released.push(self.remove_node(c));
                    }
                }
                let id = self.add_node(parent, chunk.to_vec(), blocks[i], now);
                outcome.retained.push(blocks[i]);
                parent = Some(id);
                i += 1;
            } else {
                // Partial tail: only index it if no existing child already serves it.
                let covered = child_ids.iter().any(|&c| {
                    let content = &self.node(c).content;
                    content.len() >= chunk.len() && content[..chunk.len()] == *chunk
                });
                if !covered {
                    for &c in &child_ids {
                        let n = self.node(c);
                        if n.content.len() < chunk.len()
                            && n.children.is_empty()
                            && chunk.starts_with(&n.content)
                        {
                            outcome.released.push(self.remove_node(c));
                        }
                    }
                    self.add_node(parent, chunk.to_vec(), blocks[i], now);
                    outcome.retained.push(blocks[i]);
                }
                break;
            }
        }
        outcome
    }

    /// Evicts the least-recently-touched unpinned *leaf* (ties broken by smallest block)
    /// and returns its block, or `None` when no leaf qualifies. Interior nodes become
    /// evictable as their subtrees drain, so repeated calls free whole unpinned subtrees
    /// bottom-up. O(log n).
    pub fn evict_lru(&mut self) -> Option<usize> {
        let &(_, block) = self.lru.first()?;
        // neo-lint: allow(panic-hygiene) -- every LRU entry names an indexed block; a missing slot is a structural bug that must fail loudly, not corrupt the radix tree
        let idx = self.slot_of_block[block].expect("LRU entry is indexed");
        Some(self.remove_node(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(ids: &[u64]) -> Vec<Token> {
        // Helper: one run per id, each of length 1, so tokens are just ids.
        ids.iter().map(|&id| (id, 0)).collect()
    }

    fn run(id: u64, len: usize) -> TokenRun {
        TokenRun { id, len }
    }

    #[test]
    fn expand_flattens_runs_in_order() {
        let t = expand(&[run(7, 2), run(9, 3)]);
        assert_eq!(t, vec![(7, 0), (7, 1), (9, 0), (9, 1), (9, 2)]);
        assert!(expand(&[]).is_empty());
    }

    #[test]
    fn insert_then_lookup_full_chain() {
        let mut idx = PrefixIndex::new(2);
        let tokens = expand(&[run(1, 6)]);
        let out = idx.insert(&tokens, &[10, 11, 12]);
        assert_eq!(out.retained, vec![10, 11, 12]);
        assert!(out.released.is_empty());
        let hit = idx.lookup(&tokens);
        assert_eq!(hit.blocks, vec![10, 11, 12]);
        assert_eq!(hit.partial, None);
        assert_eq!(hit.tokens(2), 6);
        // A shorter prompt matches a shorter chain.
        let hit = idx.lookup(&tokens[..4]);
        assert_eq!(hit.blocks, vec![10, 11]);
        assert_eq!(hit.partial, None);
    }

    #[test]
    fn reinserting_identical_content_adds_no_nodes() {
        let mut idx = PrefixIndex::new(2);
        let tokens = expand(&[run(1, 4)]);
        idx.insert(&tokens, &[10, 11]);
        let out = idx.insert(&tokens, &[20, 21]);
        assert!(out.retained.is_empty(), "identical chunks are deduplicated");
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn diverging_suffixes_share_the_common_prefix() {
        let mut idx = PrefixIndex::new(2);
        let a = expand(&[run(1, 2), run(2, 2)]);
        let b = expand(&[run(1, 2), run(3, 2)]);
        idx.insert(&a, &[10, 11]);
        let out = idx.insert(&b, &[20, 21]);
        assert_eq!(out.retained, vec![21], "only the diverging block is new");
        let hit = idx.lookup(&b);
        assert_eq!(hit.blocks, vec![10, 21]);
    }

    #[test]
    fn partial_tail_hits_copy_on_write_candidates() {
        let mut idx = PrefixIndex::new(4);
        // 6 tokens: one full block + a 2-token tail.
        let tokens = expand(&[run(1, 6)]);
        idx.insert(&tokens, &[10, 11]);
        // A prompt sharing 5 tokens: full block + 1 token of the tail block.
        let probe = [&tokens[..5], &toks(&[99, 98, 97])[..]].concat();
        let hit = idx.lookup(&probe);
        assert_eq!(hit.blocks, vec![10]);
        assert_eq!(hit.partial, Some((11, 1)));
        assert_eq!(hit.tokens(4), 5);
    }

    #[test]
    fn longer_tail_prunes_the_shorter_partial_node() {
        let mut idx = PrefixIndex::new(4);
        let short = expand(&[run(1, 6)]); // block 10 full, block 11 holds 2 tokens
        idx.insert(&short, &[10, 11]);
        let long = expand(&[run(1, 8)]); // same run, now two full blocks
        let out = idx.insert(&long, &[20, 21]);
        assert_eq!(out.released, vec![11], "subsumed partial is pruned");
        assert_eq!(out.retained, vec![21]);
        let hit = idx.lookup(&long);
        assert_eq!(hit.blocks, vec![10, 21]);
    }

    #[test]
    fn covered_partial_is_not_reindexed() {
        let mut idx = PrefixIndex::new(4);
        let long = expand(&[run(1, 8)]);
        idx.insert(&long, &[10, 11]);
        let short = expand(&[run(1, 6)]);
        let out = idx.insert(&short, &[20, 21]);
        assert!(out.retained.is_empty(), "existing full block covers the shorter tail");
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn evict_lru_prefers_oldest_leaf_and_skips_pinned_ones() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&expand(&[run(1, 2)]), &[10]);
        idx.insert(&expand(&[run(2, 2)]), &[11]);
        idx.lookup(&expand(&[run(1, 2)])); // refresh block 10
        assert_eq!(idx.evict_lru(), Some(11), "LRU leaf goes first");
        idx.set_pinned(10, true);
        assert_eq!(idx.evict_lru(), None, "a pinned leaf is never a victim");
        idx.set_pinned(10, false);
        assert_eq!(idx.evict_lru(), Some(10));
        assert!(idx.is_empty());
        assert_eq!(idx.unpinned_len(), 0);
    }

    #[test]
    fn eviction_is_leaf_first() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&expand(&[run(1, 4)]), &[10, 11]);
        // The interior block 10 is never evicted while its child lives.
        assert_eq!(idx.evict_lru(), Some(11));
        assert_eq!(idx.evict_lru(), Some(10));
        assert_eq!(idx.evict_lru(), None);
    }

    #[test]
    fn a_leaf_that_gains_a_child_stops_being_a_victim_until_the_child_goes() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&expand(&[run(1, 2)]), &[10]);
        assert_eq!(idx.lru_victim(), Some(10));
        // Extending the cached prompt hangs block 21 under 10, making 10 interior.
        idx.insert(&expand(&[run(1, 4)]), &[20, 21]);
        assert_eq!(idx.lru_victim(), Some(21));
        idx.set_pinned(21, true);
        assert_eq!(idx.lru_victim(), None, "the interior parent is not a victim");
        idx.set_pinned(21, false);
        assert_eq!(idx.evict_lru(), Some(21));
        assert_eq!(idx.lru_victim(), Some(10), "a childless parent is evictable again");
    }

    #[test]
    fn a_touch_rekeys_the_lru_entry() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&expand(&[run(1, 2)]), &[10]); // touched at 1
        idx.insert(&expand(&[run(2, 2)]), &[11]); // touched at 2
        assert_eq!(idx.lru_victim(), Some(10));
        idx.lookup(&expand(&[run(1, 2)])); // touched at 3
        assert_eq!(idx.lru_victim(), Some(11));
        let mut leaves = idx.leaves();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![(2, 11), (3, 10)]);
    }

    #[test]
    fn an_unpinned_interior_node_is_reclaimable_but_never_a_victim() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&expand(&[run(1, 4)]), &[10, 11]);
        idx.set_pinned(11, true);
        assert_eq!(idx.unpinned_len(), 1, "interior block 10 counts as reclaimable");
        assert_eq!(idx.lru_victim(), None);
        assert_eq!(idx.evict_lru(), None);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn set_pinned_on_an_unindexed_block_is_a_no_op() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&expand(&[run(1, 2)]), &[10]);
        idx.set_pinned(3, true); // below the indexed range
        idx.set_pinned(10_000, true); // past the block map
        idx.set_pinned(3, false);
        assert_eq!(idx.unpinned_len(), 1);
        assert_eq!(idx.lru_victim(), Some(10));
        // Pins of an evicted block do not outlive it.
        assert_eq!(idx.evict_lru(), Some(10));
        idx.set_pinned(10, false);
        assert_eq!(idx.unpinned_len(), 0);
        assert_eq!(idx.lru_victim(), None);
    }

    #[test]
    fn blocks_lists_every_indexed_block() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&expand(&[run(1, 4)]), &[10, 11]);
        idx.insert(&expand(&[run(2, 2)]), &[12]);
        let mut blocks = idx.blocks();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![10, 11, 12]);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        let _ = PrefixIndex::new(0);
    }

    #[test]
    #[should_panic(expected = "one block per")]
    fn insert_with_too_few_blocks_panics() {
        let mut idx = PrefixIndex::new(2);
        idx.insert(&expand(&[run(1, 4)]), &[10]);
    }
}
