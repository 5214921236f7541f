package repro.core.storage

import java.io.{ByteArrayOutputStream, DataOutputStream, EOFException}
import java.nio.{ByteBuffer, ByteOrder}
import scala.collection.mutable.ArrayBuffer
import repro.core.Types.SegmentRecord
import repro.core.model.ModelType

/** Compact binary encoding of segment files (`.sgmt`).
  *
  * Mirrors the paper's storage schema (Section III-C): `StartTime` is not
  * stored — a segment's tick count (`Size`) is stored instead and the start
  * recomputed as `EndTime − (Size − 1)·SI`; end times are delta-encoded
  * between consecutive rows; everything integer is LEB128 varint encoded.
  *
  * File layout:
  * {{{
  *   magic "SGMT" | version u8
  *   minGid i32 | maxGid i32 | minEnd i64 | maxEnd i64 | rowCount i32   (header, for file skipping)
  *   rowCount × [ gid varint | size varint | Δend zigzag-varint | si varint
  *                | mid u8 | gaps varint64 | paramsLen varint | params ]
  * }}}
  */
object SegmentCodec {

  val Magic: Int    = 0x53474D54 // "SGMT"
  val Version: Byte = 1

  /** Bytes of a file's header: magic through rowCount. */
  private val HeaderBytes = 4 + 1 + 4 + 4 + 8 + 8 + 4

  /** Summary of a file header, used for predicate-based file skipping. */
  final case class FileStats(minGid: Int, maxGid: Int, minEnd: Long, maxEnd: Long, rows: Int)

  // ---- varints -------------------------------------------------------------

  def writeVarLong(out: DataOutputStream, value: Long): Unit = {
    var v = value
    require(v >= 0, s"unsigned varint cannot encode $v")
    while ((v & ~0x7FL) != 0) {
      out.writeByte(((v & 0x7F) | 0x80).toInt)
      v >>>= 7
    }
    out.writeByte(v.toInt)
  }

  def zigzag(v: Long): Long   = (v << 1) ^ (v >> 63)
  def unzigzag(v: Long): Long = (v >>> 1) ^ -(v & 1)

  /** Reads unsigned LEB128 varints, bytes and byte runs of an image from
    * `pos` on; reading past its end throws an `EOFException`.
    */
  final class Reader(bytes: Array[Byte], var pos: Int) {
    def u8(): Int = {
      if (pos >= bytes.length) throw new EOFException("file truncated")
      val b = bytes(pos) & 0xFF; pos += 1; b
    }
    def varLong(): Long = {
      var shift = 0; var out = 0L; var b = 0
      do {
        b = u8()
        out |= (b & 0x7FL) << shift
        shift += 7
      } while ((b & 0x80) != 0)
      out
    }
    def raw(n: Int): Array[Byte] = {
      if (pos + n > bytes.length) throw new EOFException("file truncated")
      val a = java.util.Arrays.copyOfRange(bytes, pos, pos + n); pos += n; a
    }
  }

  // ---- encode --------------------------------------------------------------

  /** Encode segments into one file image (header + rows). */
  def encode(segments: Seq[SegmentRecord]): Array[Byte] = {
    val body = new ByteArrayOutputStream(segments.length * 24 + 64)
    val out  = new DataOutputStream(body)
    var prevEnd = 0L
    segments.foreach { s =>
      writeVarLong(out, s.gid.toLong)
      writeVarLong(out, s.length.toLong)
      writeVarLong(out, zigzag(s.endTime - prevEnd))
      prevEnd = s.endTime
      writeVarLong(out, s.si.toLong)
      out.writeByte(s.mid)
      writeVarLong(out, s.gaps)
      writeVarLong(out, s.params.length.toLong)
      out.write(s.params)
    }
    out.flush()

    val header = ByteBuffer.allocate(HeaderBytes).order(ByteOrder.BIG_ENDIAN)
    header.putInt(Magic).put(Version)
    if (segments.isEmpty) header.putInt(0).putInt(-1).putLong(0L).putLong(-1L).putInt(0)
    else header
      .putInt(segments.iterator.map(_.gid).min)
      .putInt(segments.iterator.map(_.gid).max)
      .putLong(segments.iterator.map(_.endTime).min)
      .putLong(segments.iterator.map(_.endTime).max)
      .putInt(segments.length)

    val bodyBytes = body.toByteArray
    val result    = new Array[Byte](header.capacity + bodyBytes.length)
    System.arraycopy(header.array(), 0, result, 0, header.capacity)
    System.arraycopy(bodyBytes, 0, result, header.capacity, bodyBytes.length)
    result
  }

  // ---- decode --------------------------------------------------------------

  /** Read only the header of a file image. */
  def stats(bytes: Array[Byte]): FileStats = {
    if (bytes.length < HeaderBytes) throw new EOFException("file truncated")
    val bb = ByteBuffer.wrap(bytes).order(ByteOrder.BIG_ENDIAN)
    require(bb.getInt() == Magic, "not a segment file (bad magic)")
    require(bb.get() == Version, "unsupported segment file version")
    FileStats(bb.getInt(), bb.getInt(), bb.getLong(), bb.getLong(), bb.getInt())
  }

  /** Decode every segment in a file image. A row whose Size or SI is not a
    * positive Int, or whose Mid is no model type, is rejected.
    */
  def decode(bytes: Array[Byte]): Seq[SegmentRecord] = {
    val st = stats(bytes)
    val r  = new Reader(bytes, HeaderBytes)
    val out = new ArrayBuffer[SegmentRecord](st.rows)
    var prevEnd = 0L
    var i = 0
    while (i < st.rows) {
      val gid  = r.varLong().toInt
      val size = r.varLong()
      val end  = prevEnd + unzigzag(r.varLong())
      prevEnd = end
      val si     = r.varLong()
      val mid    = r.u8()
      val gaps   = r.varLong()
      val plen   = r.varLong().toInt
      val params = r.raw(plen)
      require(size > 0 && size <= Int.MaxValue, s"row $i has size $size")
      require(si > 0 && si <= Int.MaxValue, s"row $i has sampling interval $si")
      require(ModelType.byMid.contains(mid), s"row $i has model type $mid, which is unknown")
      out += SegmentRecord(gid, end - (size - 1) * si, end, si.toInt, mid, params, gaps)
      i += 1
    }
    out.toSeq
  }
}
