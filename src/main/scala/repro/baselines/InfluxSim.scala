package repro.baselines

import java.io.{ByteArrayOutputStream, DataOutputStream}

import repro.core.model.Gorilla
import repro.core.storage.SegmentCodec

/** InfluxDB-like baseline: one TSM-style file per series (`tid=<n>.tsm`,
  * standing in for InfluxDB's series index), holding blocks of up to 1000
  * points encoded exactly the way InfluxDB 1.x's TSM engine encodes float
  * fields — delta-of-delta varint timestamps plus Gorilla-XOR values. The
  * per-series file naming gives the same Tid pruning InfluxDB gets from its
  * tag index, which is why this baseline wins point/range queries in the
  * paper while losing large aggregates.
  */
object InfluxSim extends PerSeriesFileStore(".tsm") {

  override val name = "InfluxDB(sim)"

  private val BlockPoints = 1000

  /** Encode one series' sorted points into the TSM-like image. */
  override def encodeSeries(points: IndexedSeq[(Long, Float)]): Array[Byte] = {
    val out = new ByteArrayOutputStream(points.length * 3 + 64)
    val dos = new DataOutputStream(out)
    points.grouped(BlockPoints).foreach { block =>
      SegmentCodec.writeVarLong(dos, block.length.toLong)
      // timestamps: first raw, then delta-of-delta (zigzag varints)
      SegmentCodec.writeVarLong(dos, SegmentCodec.zigzag(block.head._1))
      var prevTs    = block.head._1
      var prevDelta = 0L
      block.tail.foreach { case (ts, _) =>
        val delta = ts - prevTs
        SegmentCodec.writeVarLong(dos, SegmentCodec.zigzag(delta - prevDelta))
        prevDelta = delta
        prevTs = ts
      }
      // values: Gorilla XOR chain over this block
      val fitter = Gorilla.newFitter(1, 0.0, block.length)
      block.foreach { case (_, v) => require(fitter.append(Array(v)), "gorilla block overflow") }
      val bytes = fitter.serialize()
      SegmentCodec.writeVarLong(dos, bytes.length.toLong)
      dos.write(bytes)
    }
    dos.flush()
    out.toByteArray
  }

  /** Decode a TSM-like image back to sorted points. */
  override def decodeSeries(bytes: Array[Byte]): IndexedSeq[(Long, Float)] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[(Long, Float)]
    val r   = new SegmentCodec.Reader(bytes, 0)
    while (r.pos < bytes.length) {
      val n  = r.varLong().toInt
      val ts = new Array[Long](n)
      ts(0) = SegmentCodec.unzigzag(r.varLong())
      var prevDelta = 0L
      var i = 1
      while (i < n) {
        val delta = prevDelta + SegmentCodec.unzigzag(r.varLong())
        ts(i) = ts(i - 1) + delta
        prevDelta = delta
        i += 1
      }
      val values = Gorilla.decode(r.raw(r.varLong().toInt), 1, n)
      i = 0
      while (i < n) { out += ((ts(i), values(i))); i += 1 }
    }
    out.toIndexedSeq
  }
}
