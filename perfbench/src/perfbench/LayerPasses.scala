package perfbench

import java.nio.file.Files
import scala.collection.mutable

import repro.core.Types.SegmentRecord
import repro.core.golemm.{Compressor, GolemmConfig}
import repro.core.model.{Fallback, Gorilla, ModelType, PmcMean, Swing}
import repro.core.storage.{SegmentCodec, SegmentSource}
import repro.data.TimeSeriesGen

/** Spark-free passes over single layers, each a root span of the traced run:
  *
  *  - `golemm.replay`: the workload's groups, on one thread, through
  *    `Compressor.ticksFromSortedPoints` and `Compressor.compressGroup`;
  *  - `model.fit`: each model type's fitter over the same ticks, with a fresh
  *    fitter after each rejection;
  *  - `model.decode` and `model.aggregate`: each stored segment once, per
  *    model type. For a type the store holds none of, the segments
  *    `model.fit` produced, or if it produced none, those it fits at the
  *    default ε = 10 %;
  *  - `storage.decode` and `storage.encode`: `SegmentCodec` over each file of
  *    the store.
  *
  * Inputs are built untimed; only the calls into the program are timed.
  */
object LayerPasses {

  private val fitTypes: Seq[(String, ModelType)] =
    Seq("pmc_mean" -> PmcMean, "swing" -> Swing, "gorilla" -> Gorilla)
  private val storedTypes: Seq[(String, Int)] =
    fitTypes.map { case (n, m) => n -> m.mid } :+ ("fallback" -> Fallback.mid)

  /** A model segment out of its group's context: blob, series and ticks. */
  private final case class Blob(mid: Int, params: Array[Byte], nSeries: Int, length: Int)

  def run(tracer: Tracer, in: LayerInput): Seq[(String, Double)] = {
    val out = mutable.ArrayBuffer.empty[(String, Double)]
    val fitted = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Blob]]
    val fitNs  = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
    val fitPts = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
    var tickNs, compressNs, points = 0L
    var stats = Compressor.GroupStats.zero

    val fullTicks = tracer.span("golemm.replay") {
      in.catalog.groups.map { g =>
        val members = g.tids
        val rows = members.flatMap(t => TimeSeriesGen.seriesPoints(in.specs(t)))
          .map(p => (p.ts, p.tid, p.value)).sortBy(r => (r._1, r._2)).toArray
        val si       = in.specs(members.head).si
        val scalings = members.map(t => in.catalog.byTid(t).scaling).toArray
        points += rows.length

        val t0    = System.nanoTime()
        val ticks = Compressor.ticksFromSortedPoints(members, rows.iterator).toArray
        val t1    = System.nanoTime()
        val (_, st) = Compressor.compressGroup(g.gid, members.length, si, scalings, ticks.iterator, in.golemm)
        tickNs += t1 - t0
        compressNs += System.nanoTime() - t1
        stats = stats.merge(st)
        ticks.map(_._2).filterNot(_.exists(_.isNaN))
      }
    }

    tracer.span("model.fit") {
      fitTypes.foreach { case (name, mt) =>
        tracer.span(s"model.fit.$name") {
          in.catalog.groups.zip(fullTicks).foreach { case (g, full) =>
            val t = System.nanoTime()
            val blobs = fit(mt, g.tids.length, full, in.golemm)
            fitNs(name) += System.nanoTime() - t
            fitPts(name) += full.length.toLong * g.tids.length
            fitted.getOrElseUpdate(mt.mid, mutable.ArrayBuffer.empty) ++= blobs
          }
        }
      }
    }

    out += "golemm.tick_ns_per_point" -> tickNs.toDouble / points
    out += "golemm.compress_ns_per_point" -> compressNs.toDouble / points
    out += "golemm.segments_per_kpoint" -> 1000.0 * stats.segments / points
    storedTypes.foreach { case (name, mid) =>
      out += s"golemm.segment_share.$name" -> stats.perMid.getOrElse(mid, 0L).toDouble / stats.segments
    }
    out += "golemm.splits" -> stats.splits.toDouble
    out += "golemm.merges" -> stats.merges.toDouble
    out += "golemm.merge_attempts" -> stats.mergeAttempts.toDouble
    out += "golemm.merge_success_ratio" ->
      (if (stats.mergeAttempts == 0) 0.0 else stats.merges.toDouble / stats.mergeAttempts)
    fitTypes.foreach { case (name, _) =>
      out += s"model.fit_ns_per_point.$name" -> fitNs(name).toDouble / fitPts(name)
    }

    // Storage: each file read untimed, then decoded and re-encoded.
    val files = SegmentSource.listFiles(in.storePath).map(f => Files.readAllBytes(f.toPath))
    val bytes = files.map(_.length.toLong).sum
    val (decoded, decodeS) = repeatTimed(tracer, "storage.decode")(files.map(SegmentCodec.decode))
    val (_, encodeS)       = repeatTimed(tracer, "storage.encode")(decoded.map(SegmentCodec.encode))
    val segments = decoded.flatten
    out += "storage.decode_mb_s" -> bytes / 1e6 / decodeS
    out += "storage.encode_mb_s" -> bytes / 1e6 / encodeS
    out += "storage.files" -> files.length.toDouble
    out += "storage.segments_per_file" -> segments.length.toDouble / math.max(1, files.length)
    out += "storage.bytes" -> bytes.toDouble

    // Model decode and aggregate over each stored segment.
    val stored = segments.map(s => blobOf(in, s)).groupBy(_.mid)
    fitTypes.foreach { case (name, mt) =>
      val blobs = stored.get(mt.mid).orElse(fitted.get(mt.mid).filter(_.nonEmpty).map(_.toSeq))
        .getOrElse(fullTicks.zip(in.catalog.groups).flatMap { case (full, g) =>
          fit(mt, g.tids.length, full, GolemmConfig())
        })
      val pts   = blobs.map(b => b.length.toLong * b.nSeries).sum
      val (_, decS) = repeatTimed(tracer, s"model.decode.$name")(
        blobs.foreach(b => mt.decode(b.params, b.nSeries, b.length)))
      val (_, aggS) = repeatTimed(tracer, s"model.aggregate.$name")(
        blobs.foreach(b => mt.aggregate(b.params, b.nSeries, b.length, 0, b.length - 1)))
      out += s"model.decode_ns_per_point.$name" -> (if (pts == 0) 0.0 else decS * 1e9 / pts)
      out += s"model.aggregate_ns_per_segment.$name" ->
        (if (blobs.isEmpty) 0.0 else aggS * 1e9 / blobs.length)
    }
    out.toSeq
  }

  /** Fit `mt` over full ticks; a rejected tick starts a fresh fitter, and a
    * tick that a fresh fitter rejects too is skipped.
    */
  private def fit(mt: ModelType, n: Int, ticks: Array[Array[Float]],
                  cfg: GolemmConfig): Seq[Blob] = {
    val out = mutable.ArrayBuffer.empty[Blob]
    var f   = mt.newFitter(n, cfg.epsilonPct, cfg.lengthBound)
    def close(): Unit = if (f.length > 0) out += Blob(mt.mid, f.serialize(), n, f.length)
    ticks.foreach { v =>
      if (!f.append(v)) {
        close()
        f = mt.newFitter(n, cfg.epsilonPct, cfg.lengthBound)
        if (!f.append(v)) f = mt.newFitter(n, cfg.epsilonPct, cfg.lengthBound)
      }
    }
    close()
    out.toSeq
  }

  private def blobOf(in: LayerInput, s: SegmentRecord): Blob = {
    val members = in.catalog.membersOf(s.gid).length
    val mask    = if (members == 64) -1L else (1L << members) - 1
    Blob(s.mid, s.params, members - java.lang.Long.bitCount(s.gaps & mask), s.length)
  }

  /** Repeat `body` until it has run for at least 50 ms; seconds per run. */
  private def repeatTimed[A](tracer: Tracer, name: String)(body: => A): (A, Double) =
    tracer.span(name) {
      val t0 = System.nanoTime()
      var r  = body
      var n  = 1
      while (System.nanoTime() - t0 < 50000000L) { r = body; n += 1 }
      (r, (System.nanoTime() - t0) / 1e9 / n)
    }
}
