package coll

import "gompi/internal/coll/colltest"

// The package tests run the engine over colltest's in-memory mesh, the
// transport mpi's allocation gate uses too.

// NBMeshRank is one member's endpoint of an NBMesh.
type NBMeshRank = colltest.Rank[Req]

// NewNBMesh builds an in-memory mesh of size members.
func NewNBMesh(size int) *colltest.Mesh[Req] { return colltest.NewMesh[Req](size) }
