package repro.baselines

import java.nio.ByteBuffer

/** Cassandra-like baseline: a row-oriented store of `(ts, value)` records
  * clustered by primary key `(tid, ts)` — one file per Tid partition, like
  * Cassandra's partition key gives — compressed per 64 KiB chunk with LZ4,
  * the layout and compression an SSTable gives the paper's Cassandra schema.
  *
  * This keeps both of Cassandra's evaluated behaviours: competitive
  * point/range queries thanks to partition-key pruning, and poor compression
  * and large-aggregate scans because a general-purpose byte compressor over
  * row-major data cannot exploit temporal structure.
  */
object CassandraSim extends PerSeriesFileStore(".cas") {

  override val name = "Cassandra(sim)"

  private val RecordBytes = 12 // ts i64, value f32 (tid is the partition/file)

  override def encodeSeries(points: IndexedSeq[(Long, Float)]): Array[Byte] = {
    val bb = ByteBuffer.allocate(points.length * RecordBytes)
    points.foreach { case (ts, v) => bb.putLong(ts).putFloat(v) }
    Lz4Block.compress(bb.array())
  }

  override def decodeSeries(bytes: Array[Byte]): IndexedSeq[(Long, Float)] = {
    val bb = ByteBuffer.wrap(Lz4Block.decompress(bytes))
    IndexedSeq.fill(bb.remaining() / RecordBytes)((bb.getLong, bb.getFloat))
  }
}
