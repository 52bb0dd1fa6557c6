/// \file merkle.h
/// \brief Binary SHA-256 Merkle tree with inclusion proofs.
///
/// Blocks commit to their transactions and receipts through Merkle roots;
/// SPV-style consensus reads (paper §3.3) verify inclusion proofs against
/// roots fetched from a quorum of nodes.

#pragma once

#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/sha256.h"

namespace confide::crypto {

/// \brief One step of a Merkle inclusion proof.
struct MerkleProofStep {
  Hash256 sibling;
  bool sibling_is_left = false;
};

/// \brief Inclusion proof for one leaf.
struct MerkleProof {
  size_t leaf_index = 0;
  std::vector<MerkleProofStep> steps;
};

/// \brief Immutable Merkle tree built over leaf byte strings.
///
/// Leaves are hashed with a 0x00 domain-separation prefix and interior
/// nodes with 0x01, preventing leaf/node confusion attacks. An odd node at
/// any level is paired with itself.
class MerkleTree {
 public:
  /// \brief Builds the tree; an empty leaf set yields the hash of an empty
  /// string as root.
  explicit MerkleTree(const std::vector<Bytes>& leaves);

  const Hash256& Root() const { return levels_.back()[0]; }

  /// \brief Produces an inclusion proof for leaf `index`.
  Result<MerkleProof> Prove(size_t index) const;

  /// \brief Verifies `proof` that `leaf` is under `root`.
  static bool Verify(const Hash256& root, ByteView leaf, const MerkleProof& proof);

  /// \brief Leaf hash with domain separation.
  static Hash256 HashLeaf(ByteView leaf);

  /// \brief Interior-node hash with domain separation.
  static Hash256 HashInterior(const Hash256& left, const Hash256& right);

 private:
  size_t leaf_count_;
  std::vector<std::vector<Hash256>> levels_;  // levels_[0] = leaf hashes
};

}  // namespace confide::crypto
