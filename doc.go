// Package cmtk is a reproduction of "A Toolkit for Constraint Management
// in Heterogeneous Information Systems" (Chawathe, Garcia-Molina, Widom;
// ICDE 1996): a framework and toolkit for monitoring and enforcing
// distributed integrity constraints across loosely coupled, heterogeneous
// information systems that offer no common transaction or query facility.
//
// The implementation lives under internal/; see README.md for the
// architecture, DESIGN.md for the paper-to-module map, and EXPERIMENTS.md
// for the reproduced scenario results; internal/harness holds every
// experiment's table byte for byte against a committed golden file.
package cmtk
