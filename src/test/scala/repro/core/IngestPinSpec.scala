package repro.core

import java.nio.ByteBuffer
import java.nio.file.Files
import java.security.MessageDigest

import repro.{SparkSpec, TestStore}
import repro.bench.Stores
import repro.core.Types.SegmentRecord
import repro.core.golemm.GolemmConfig
import repro.core.storage.{SegmentCodec, SegmentSource}
import repro.data.TimeSeriesGen

/** Pins what `ModelarDB.ingest` stores on two seeded inputs: the SHA-256 of
  * the decoded segments sorted by `(gid, start_time)`. Unlike
  * `GolemmPinSpec`, the points go through Spark's shuffle and the tick
  * assembly of the ingest job, so a change there that is meant to be a pure
  * speed-up must leave the digest as it is.
  */
class IngestPinSpec extends SparkSpec {
  import IngestPinSpec.digest

  test("EP-like at eps=10 with gaps: the stored segments are pinned") {
    val ds = TimeSeriesGen.epLike(spark, sf = 0.005, gapProb = 0.01, gapLenMax = 20, seed = 71)
    val b  = TestStore.build(spark, ds, Stores.mdbVariants("EP", 10.0).head._2,
                             GolemmConfig(epsilonPct = 10.0))
    assert(b.stats.points == ds.pointCount)
    assert(digest(b.cfg.storePath) == "51c8888bbec612e7cf8aeed5127da843a80e4bb23d3e747b80038cee77a91247")
  }

  test("EF-like at eps=0 with groups of 8: the stored segments are pinned") {
    val ds = TimeSeriesGen.efLike(spark, sf = 0.002, gapProb = 0.005, gapLenMax = 30, seed = 72)
    val b  = TestStore.build(spark, ds, Stores.mdbVariants("EF", 0.0).head._2,
                             GolemmConfig(epsilonPct = 0.0))
    assert(b.catalog.groups.forall(_.tids.length == 8))
    assert(b.stats.points == ds.pointCount)
    assert(digest(b.cfg.storePath) == "d61a90634435a20b5e2603acaca2436763881a40e16f2b9f5a8b97b3db200fdd")
  }
}

object IngestPinSpec {

  /** The store's segments, decoded and stably sorted by `(gid, start_time)`. */
  def segments(storePath: String): Seq[SegmentRecord] =
    SegmentSource.listFiles(storePath)
      .flatMap(f => SegmentCodec.decode(Files.readAllBytes(f.toPath)))
      .sortBy(s => (s.gid, s.startTime))

  /** SHA-256 over every field of [[segments]]. */
  def digest(storePath: String): String = {
    val md = MessageDigest.getInstance("SHA-256")
    segments(storePath).foreach { s =>
      md.update(ByteBuffer.allocate(36 + s.params.length)
        .putInt(s.gid).putLong(s.startTime).putLong(s.endTime).putInt(s.si)
        .putInt(s.mid).putLong(s.gaps).put(s.params).array())
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }
}
