package repro.core.golemm

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Types.SegmentRecord
import repro.core.model.ModelType
import repro.data.TimeSeriesGen
import repro.data.TimeSeriesGen.SeriesSpec

/** Pins GOLEMM's output on three seeded inputs: the SHA-256 of every emitted
  * segment and the per-group counts summed. A change to the ingest kernel
  * that is meant to be a pure speed-up must leave both as they are.
  */
class GolemmPinSpec extends AnyFunSuite {
  import GolemmPinSpec.Totals

  /** Compress `groups` groups, one per cluster, through the tick assembler
    * and `compressGroup`. Member k of group g is the cluster's base signal
    * plus `offsets(g)(k)`.
    */
  private def run(groups: Int, offsets: Int => IndexedSeq[Float], si: Int, ticks: Int,
                  gapProb: Double, gapLenMax: Int, seed: Long,
                  cfg: GolemmConfig): (String, Totals) = {
    val md = MessageDigest.getInstance("SHA-256")
    var totals = Totals(0, 0, Map.empty, 0, 0, 0)
    (0 until groups).foreach { g =>
      val offs  = offsets(g)
      val tids  = offs.indices.map(k => g * offs.length + k + 1)
      val specs = tids.zip(offs).map { case (tid, off) =>
        SeriesSpec(tid, g, off, si, 0L, ticks, gapProb, gapLenMax, seed)
      }
      val rows = specs.flatMap(TimeSeriesGen.seriesPoints)
        .sortBy(p => (p.ts, p.tid)).iterator.map(p => (p.ts, p.tid, p.value))
      val ticksIt = Compressor.ticksFromSortedPoints(tids, rows, g)
      val (segs, st) = Compressor.compressGroup(g, tids.length, si,
                                                Array.fill(tids.length)(1.0), ticksIt, cfg)
      segs.foreach(s => md.update(bytesOf(s)))
      totals = Totals(totals.points + st.points, totals.segments + st.segments,
                      (totals.perMid.keySet ++ st.perMid.keySet).map(m =>
                        m -> (totals.perMid.getOrElse(m, 0L) + st.perMid.getOrElse(m, 0L))).toMap,
                      totals.splits + st.splits, totals.merges + st.merges,
                      totals.mergeAttempts + st.mergeAttempts)
    }
    (md.digest().map(b => f"${b & 0xff}%02x").mkString, totals)
  }

  private def bytesOf(s: SegmentRecord): Array[Byte] =
    ByteBuffer.allocate(36 + s.params.length)
      .putInt(s.gid).putLong(s.startTime).putLong(s.endTime).putInt(s.si)
      .putInt(s.mid).putLong(s.gaps).put(s.params).array()

  test("EP-like groups of 2 at eps=10: segments and counts are pinned") {
    val (digest, totals) = run(groups = 12, offsets = g => IndexedSeq(0f, if (g % 2 == 0) 0f else 1.5f), si = 60000,
                               ticks = 2000, gapProb = 0.002, gapLenMax = 20, seed = 42,
                               GolemmConfig(epsilonPct = 10.0))
    assert(digest == "171359aa9ff8aa1d126b648b68ed700ae88257ba9574db8073c328e5f64036f3")
    assert(totals == Totals(47188, 395, Map(1 -> 273L, 2 -> 104L, 3 -> 18L), 11, 11, 13))
  }

  test("EF-like groups of 8 at eps=0 with gaps and splits: segments and counts are pinned") {
    // Half the groups hold identical series, as in the generator's EF set;
    // in the other half the first two are identical and the rest are offset.
    val offsets = (g: Int) =>
      if (g % 2 == 0) IndexedSeq.fill(8)(0f)
      else IndexedSeq(0f, 0f, 0.25f, 0.25f, -0.5f, 1f, 300f, 700f)
    val (digest, totals) = run(groups = 8, offsets, si = 200, ticks = 3000,
                               gapProb = 0.003, gapLenMax = 50, seed = 43,
                               GolemmConfig(epsilonPct = 0.0))
    assert(digest == "ae34f5c5afcb0c9dbc6df7a911b843c796d8a97992bb0fe36db6debfb2d3929d")
    assert(totals == Totals(177585, 1254, Map(1 -> 241L, 2 -> 172L, 3 -> 841L), 26, 26, 35))
  }

  test("MDB v1 single series at eps=10 (PMC-MR, no splitting): segments and counts are pinned") {
    val (digest, totals) = run(groups = 12, offsets = _ => IndexedSeq(0f), si = 60000,
                               ticks = 2000, gapProb = 0.002, gapLenMax = 20, seed = 42,
                               GolemmConfig(modelTypes = ModelType.mdbV1List, epsilonPct = 10.0,
                                            dynamicSplitting = false))
    assert(digest == "31a0b1dc0b9543f4617608373a0be4bb319e6953c05a41dcd5c1d2fcdf8d593e")
    assert(totals == Totals(23655, 237, Map(2 -> 67L, 3 -> 15L, 4 -> 155L), 0, 0, 0))
  }
}

object GolemmPinSpec {
  final case class Totals(points: Long, segments: Long, perMid: Map[Int, Long],
                          splits: Int, merges: Int, mergeAttempts: Int)
}
