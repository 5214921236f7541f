package repro.core.model

import java.util.Arrays

/** The bit writer and reader as they were before their 64-bit accumulators:
  * one bit per loop turn. Kept as the reference [[BitBufferEquivalenceSpec]]
  * compares [[BitWriter]] and [[BitReader]] with.
  */
final class BitWriterReference {
  private var buf: Array[Byte] = new Array[Byte](8)
  private var bitPos: Long     = 0L

  def writeBits(value: Long, n: Int): Unit = {
    require(n >= 0 && n <= 64, s"bad bit count $n")
    val needed = ((bitPos + n + 7) / 8).toInt
    if (needed > buf.length) buf = Arrays.copyOf(buf, math.max(needed, buf.length * 2))
    var i = n - 1
    while (i >= 0) {
      val byte = (bitPos / 8).toInt
      val off  = 7 - (bitPos % 8).toInt
      if (((value >>> i) & 1L) != 0L) buf(byte) = (buf(byte) | (1 << off)).toByte
      bitPos += 1
      i -= 1
    }
  }

  def writeBit(bit: Boolean): Unit = writeBits(if (bit) 1L else 0L, 1)

  def sizeInBits: Long = bitPos

  def toBytes: Array[Byte] = Arrays.copyOf(buf, ((bitPos + 7) / 8).toInt)
}

final class BitReaderReference(bytes: Array[Byte]) {
  private var bitPos: Long = 0L

  def remaining: Long = bytes.length.toLong * 8 - bitPos

  def readBits(n: Int): Long = {
    require(n >= 0 && n <= 64, s"bad bit count $n")
    require(remaining >= n, s"bit underflow: need $n, have $remaining")
    var out = 0L
    var i   = 0
    while (i < n) {
      val bit = (bytes((bitPos / 8).toInt) >>> (7 - (bitPos % 8).toInt)) & 1
      out = (out << 1) | bit
      bitPos += 1
      i += 1
    }
    out
  }

  def readBit(): Boolean = readBits(1) == 1L
}
