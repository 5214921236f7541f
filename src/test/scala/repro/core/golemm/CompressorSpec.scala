package repro.core.golemm

import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Types.{Group, GroupChunk}
import repro.core.model.ModelType
import repro.data.TimeSeriesGen
import repro.data.TimeSeriesGen.SeriesSpec

class CompressorSpec extends AnyFunSuite {

  private def cfg = GolemmConfig(epsilonPct = 0.0, lengthBound = 50)
  private def q(x: Double): Float = (Math.round(x * 1024) / 1024.0).toFloat

  test("ticksFromSortedPoints aligns rows into ticks with NaN for missing") {
    val rows = Iterator(
      (0L, 1, 1.0f), (0L, 2, 2.0f),
      (100L, 1, 1.5f), // tid 2 missing at t=100
      (200L, 2, 2.5f),
    )
    val ticks = Compressor.ticksFromSortedPoints(IndexedSeq(1, 2), rows).toSeq
    assert(ticks.map(_._1) == Seq(0L, 100L, 200L))
    assert(ticks(0)._2.toSeq == Seq(1.0f, 2.0f))
    assert(ticks(1)._2(0) == 1.5f && ticks(1)._2(1).isNaN)
    assert(ticks(2)._2(0).isNaN && ticks(2)._2(1) == 2.5f)
  }

  test("ticksFromSortedPoints rejects unknown tids") {
    val rows = Iterator((0L, 99, 1.0f))
    intercept[RuntimeException] {
      Compressor.ticksFromSortedPoints(IndexedSeq(1, 2), rows).toSeq
    }
  }

  test("ticksFromChunks aligns chunks in any order, one split at the size cap, with gaps") {
    val tids = Array(10, 20, 30)
    val n    = Compressor.ChunkPoints + 500
    val gap  = 1000 until 1200
    def value(m: Int, t: Int): Float =
      if (m == 2 && gap.contains(t)) Float.NaN else (m * 1000 + t % 97).toFloat
    def points(m: Int, ticks: Seq[Int]) =
      ticks.filterNot(t => value(m, t).isNaN).map(t => (tids(m), t * 100L, value(m, t)))
    // One row object for every point, as Spark may reuse it.
    def rows(ps: Seq[(Int, Long, Float)]) = {
      val row = new GenericInternalRow(3)
      ps.iterator.map { case (t, ts, v) => row.setInt(0, t); row.setLong(1, ts); row.setFloat(2, v); row }
    }
    val chunker = new Compressor.Chunker(IndexedSeq(Group(7, tids.toIndexedSeq)))
    // Two map tasks: one holds all of tid 10 and tid 20's even ticks, the
    // other tid 30 (with a gap) and tid 20's odd ticks, newest first.
    val taskA = points(0, 0 until n) ++ points(1, 0 until n by 2)
    val taskB = points(2, 0 until n) ++ points(1, (1 until n by 2).reverse)
    val a     = chunker.chunks(rows(taskA)).toVector
    val b     = chunker.chunks(rows(taskB)).toVector
    assert(a.map(_.ts.length) == Vector(Compressor.ChunkPoints, taskA.length - Compressor.ChunkPoints))
    assert((a ++ b).forall(_.gid == 7))
    val ticks = Compressor.ticksFromChunks(tids, b.reverse ++ a.reverse, 7).rows.toVector
    assert(ticks.map(_._1) == (0 until n).map(_ * 100L))
    def bits(vs: Seq[Float]) = vs.map(java.lang.Float.floatToRawIntBits)
    assert(ticks.map(t => bits(t._2.toSeq)) == (0 until n).map(t => bits(tids.indices.map(value(_, t)))))
  }

  test("ticksFromChunks rejects a point that two chunks both hold") {
    val e = intercept[IllegalArgumentException] {
      Compressor.ticksFromChunks(Array(5, 6), Seq(
        GroupChunk(1, Array(0L, 100L), Array[Byte](0, 1), Array(1f, 2f)),
        GroupChunk(1, Array(100L), Array[Byte](1), Array(3f))), 1)
    }
    assert(e.getMessage == "duplicate point in group 1: tid 6 at ts 100")
  }

  test("ticksFromChunks accepts a span below 2^57 ms and rejects one of 2^57 ms or more") {
    def chunk(ts: Long*) = GroupChunk(1, ts.toArray, Array.fill(ts.length)(0.toByte),
                                   Array.fill(ts.length)(1f))
    val ok = Compressor.ticksFromChunks(Array(5), Seq(chunk(-100L, (1L << 57) - 101)), 1).rows.toVector
    assert(ok.map(_._1) == Vector(-100L, (1L << 57) - 101))
    Seq(Seq(0L, 1L << 57), Seq(Long.MinValue, Long.MaxValue)).foreach { ts =>
      val e = intercept[IllegalArgumentException](
        Compressor.ticksFromChunks(Array(5), Seq(chunk(ts: _*)), 1))
      assert(e.getMessage.contains("2^57"), e.getMessage)
    }
  }

  test("a point whose value is NaN gives the same segments as leaving the point out") {
    // Member 0 is present at every tick, so no tick loses all its points.
    val tids = Array(1, 2, 3, 4)
    val rng  = new scala.util.Random(29)
    val points = for (t <- 0 until 800; m <- tids.indices)
      yield (t * 100L, m, q(100.0 + 10 * m + (if (t % 200 < 100) 0.0 else rng.nextDouble() * 50)))
    val nan = points.map { case (ts, m, v) => (ts, m, m > 0 && rng.nextDouble() < 0.05, v) }
    def chunk(ps: Seq[(Long, Int, Float)]) =
      GroupChunk(1, ps.map(_._1).toArray, ps.map(_._2.toByte).toArray, ps.map(_._3).toArray)
    val withNaN = chunk(nan.map { case (ts, m, gap, v) => (ts, m, if (gap) Float.NaN else v) })
    val without = chunk(nan.collect { case (ts, m, false, v) => (ts, m, v) })
    assert(withNaN.ts.length > without.ts.length + 100)
    Seq(0.0, 10.0).foreach { eps =>
      def compress(c: GroupChunk) = Compressor.compressGroup(1, tids.length, 100, Array.fill(4)(1.0),
        Compressor.ticksFromChunks(tids, Seq(c), 1), GolemmConfig(epsilonPct = eps, lengthBound = 50))
      val (a, sa) = compress(withNaN)
      val (b, sb) = compress(without)
      assert(a == b, s"eps $eps")
      assert(sa.copy(splitMergeNanos = 0, totalNanos = 0) == sb.copy(splitMergeNanos = 0, totalNanos = 0))
    }
  }

  test("a 64-member group whose members never share a timestamp assembles in arrays of its points") {
    val tids   = Array.tabulate(64)(m => 100 + m)
    val points = 64 * 40
    // Member m holds the ticks congruent to m modulo 64, so each tick has
    // one present member: ticks × members would be 64 times the points.
    val c = GroupChunk(9, Array.tabulate(points)(i => i * 10L), Array.tabulate(points)(i => (i % 64).toByte),
                       Array.tabulate(points)(i => (i % 64).toFloat))
    val ticks = Compressor.ticksFromChunks(tids, Seq(c), 9)
    assert(ticks.length == points)
    assert(Seq(ticks.ts.length, ticks.present.length, ticks.values.length).forall(_ == points))
    assert((0 until points).forall(k => ticks.present(k) == 1L << (k % 64) && ticks.values(k) == k % 64))
    val (_, st) = Compressor.compressGroup(9, 64, 10, Array.fill(64)(1.0), ticks, cfg)
    assert(st.points == points)
  }

  test("the tuple compressGroup equals compressGroup of ticksFromChunks on the same points") {
    val tids   = Array(1, 2, 3, 4)
    val allNaN = 300 * 100L           // every member's value is NaN at this tick
    val nanAt  = (100 * 100L, 1)      // and member 1's at this one
    for (g <- 0 until 3; eps <- Seq(0.0, 10.0)) {
      val specs = tids.toIndexedSeq.map(t =>
        SeriesSpec(t, g, if (t <= 2) 0f else 0.25f * t, 100, 0L, 800, 0.01, 20, 11L + g))
      val generated = specs.flatMap(TimeSeriesGen.seriesPoints).map(p => (p.ts, p.tid - 1) -> p.value).toMap
      val points = (generated.filter(_._1._1 != allNaN) ++ tids.indices.map(m => (allNaN, m) -> Float.NaN) +
                    (nanAt -> Float.NaN)).toSeq.sortBy(_._1)
      val rows = points.groupBy(_._1._1).toSeq.sortBy(_._1).map { case (ts, ps) =>
        val row = Array.fill(tids.length)(Float.NaN)
        ps.foreach { case ((_, m), v) => row(m) = v }
        (ts, row)
      }
      assert(points.length < rows.length * tids.length) // some members have gaps
      val chunk = GroupChunk(g, points.map(_._1._1).toArray, points.map(_._1._2.toByte).toArray,
                             points.map(_._2).toArray)
      val scalings = Array(1.0, 1.0, 2.0, 1.0)
      val golemm   = GolemmConfig(epsilonPct = eps, lengthBound = 50)
      val (a, sa) = Compressor.compressGroup(g, tids.length, 100, scalings, rows.iterator, golemm)
      val (b, sb) = Compressor.compressGroup(g, tids.length, 100, scalings,
                                             Compressor.ticksFromChunks(tids, Seq(chunk), g), golemm)
      assert(a.length > 1 && a == b, s"group $g eps $eps")
      assert(sa.copy(splitMergeNanos = 0, totalNanos = 0) == sb.copy(splitMergeNanos = 0, totalNanos = 0))
    }
    val e = intercept[IllegalArgumentException](Compressor.compressGroup(1, 2, 100, Array(1.0, 1.0),
      Iterator(0L -> Array(1f, 2f), 100L -> Array(3f)), cfg))
    assert(e.getMessage == "expected 2 values, got 1")
  }

  test("compressGroup counts points, segments, model usage") {
    val ticks = (0 until 100).map(i => (i.toLong * 100, Array(5.0f, 5.0f)))
    val (segs, stats) =
      Compressor.compressGroup(1, 2, 100, Array(1.0, 1.0), ticks.iterator, cfg)
    assert(stats.points == 200)
    assert(stats.segments == segs.length.toLong)
    assert(stats.perMid.values.sum == segs.length.toLong)
    assert(stats.paramBytes == segs.map(_.params.length.toLong).sum)
    assert(stats.totalNanos > 0)
  }

  test("scaling constants are divided out before fitting") {
    // series 1 is exactly 2x series 0: with scaling (1, 2) the model sees
    // identical values and a single PMC-Mean model fits the group at eps=0
    val ticks = (0 until 50).map(i => (i.toLong * 100, Array(8.0f, 16.0f)))
    val (segs, _) =
      Compressor.compressGroup(1, 2, 100, Array(1.0, 2.0), ticks.iterator, cfg)
    assert(segs.length == 1)
    val dec = ModelType.byMid(segs.head.mid).decode(segs.head.params, 2, segs.head.length)
    assert(dec.forall(_ == 8.0f))
  }

  test("gaps flow through compressGroup") {
    val ticks = (0 until 30).map { i =>
      val v1 = if (i >= 10 && i < 20) Float.NaN else 3.0f
      (i.toLong * 100, Array(3.0f, v1))
    }
    val (segs, stats) =
      Compressor.compressGroup(7, 2, 100, Array(1.0, 1.0), ticks.iterator, cfg)
    assert(stats.points == 50)
    assert(segs.exists(_.gaps == 2L) && segs.exists(_.gaps == 0L))
    assert(segs.forall(_.gid == 7))
  }

  test("GroupStats merge adds counters") {
    val a = Compressor.GroupStats(10, 2, 20, Map(1 -> 2L), 1, 0, 3, 5L, 7L)
    val b = Compressor.GroupStats(5, 1, 8, Map(1 -> 1L, 3 -> 1L), 0, 1, 1, 2L, 3L)
    val m = a.merge(b)
    assert(m.points == 15 && m.segments == 3 && m.paramBytes == 28)
    assert(m.perMid == Map(1 -> 3L, 3 -> 1L))
    assert(m.splits == 1 && m.merges == 1 && m.mergeAttempts == 4)
    assert(m.splitMergeNanos == 7L && m.totalNanos == 10L)
  }

  test("empty tick stream produces no segments") {
    val (segs, stats) =
      Compressor.compressGroup(1, 1, 100, Array(1.0), Iterator.empty, cfg)
    assert(segs.isEmpty && stats.points == 0 && stats.segments == 0)
  }

  /** End-to-end reconstruction: a multi-regime group with gaps reproduces
    * every input point exactly at eps=0.
    */
  test("lossless end-to-end reconstruction with gaps at eps=0") {
    val Q = 1024.0f
    def q(x: Double) = Math.round(x * Q) / Q
    val rng = new scala.util.Random(19)
    val input = collection.mutable.Map.empty[(Int, Long), Float]
    val ticks = (0 until 300).map { i =>
      val base =
        if (i < 100) q(200.0)
        else if (i < 200) q(50.0) + q(0.25) * (i - 100)
        else q(rng.nextDouble() * 1000)
      val v0 = base
      val v1 = if (i % 37 < 5) Float.NaN else base
      if (!v0.isNaN) input((0, i.toLong * 100)) = v0
      if (!v1.isNaN) input((1, i.toLong * 100)) = v1
      (i.toLong * 100, Array(v0, v1))
    }
    val (segs, _) = Compressor.compressGroup(1, 2, 100, Array(1.0, 1.0), ticks.iterator, cfg)
    val rec = collection.mutable.Map.empty[(Int, Long), Float]
    segs.foreach { s =>
      val present = (0 until 2).filter(m => (s.gaps & (1L << m)) == 0)
      val dec     = ModelType.byMid(s.mid).decode(s.params, present.length, s.length)
      for (t <- 0 until s.length; (m, si2) <- present.zipWithIndex)
        rec((m, s.startTime + t.toLong * s.si)) = dec(t * present.length + si2)
    }
    assert(rec.keySet == input.keySet)
    input.foreach { case (k, v) => assert(rec(k) == v, s"at $k") }
  }
}
