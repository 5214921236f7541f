package repro.core.model

import java.util.Arrays

/** MSB-first bit writer used by the Gorilla codec and the segment codec.
  *
  * Bits are packed most-significant-first into a growable byte array, the
  * layout Gorilla's original description uses. They collect in a 64-bit
  * accumulator that moves to the array eight bytes at a time, so a write
  * costs a few shifts whatever its width. Writers are single-use:
  * [[toBytes]] pads the final partial byte with zeros.
  */
final class BitWriter(initialCapacity: Int = 64) {
  private var buf: Array[Byte] = new Array[Byte](math.max(initialCapacity, 8))
  private var flushed          = 0   // whole bytes moved into `buf`
  private var acc              = 0L  // pending bits, left-aligned
  private var free             = 64  // unused low bits of `acc`

  /** Number of whole bytes needed for the bits written so far. */
  def sizeInBytes: Int = ((sizeInBits + 7) / 8).toInt

  /** Number of bits written so far. */
  def sizeInBits: Long = flushed * 8L + (64 - free)

  private def flush(): Unit = {
    if (flushed + 8 > buf.length) buf = Arrays.copyOf(buf, math.max(buf.length * 2, flushed + 8))
    var i = 0
    while (i < 8) { buf(flushed + i) = (acc >>> (56 - 8 * i)).toByte; i += 1 }
    flushed += 8
    acc = 0L
    free = 64
  }

  /** Write the lowest `n` bits of `value`, MSB first. `0 <= n <= 64`. */
  def writeBits(value: Long, n: Int): Unit = {
    if (n < 0 || n > 64) throw new IllegalArgumentException(s"bad bit count $n")
    if (n == 0) return
    val v = if (n == 64) value else value & ((1L << n) - 1)
    if (n <= free) {
      free -= n
      acc |= v << free
      if (free == 0) flush()
    } else {
      val rest = n - free // 1 to 63 bits that go to the next word
      acc |= v >>> rest
      flush()
      free = 64 - rest
      acc = v << free
    }
  }

  /** Write a single bit. */
  def writeBit(bit: Boolean): Unit = writeBits(if (bit) 1L else 0L, 1)

  /** The packed bytes; the final partial byte is zero-padded. */
  def toBytes: Array[Byte] = {
    val out = Arrays.copyOf(buf, sizeInBytes)
    var i = flushed
    while (i < out.length) { out(i) = (acc >>> (56 - 8 * (i - flushed))).toByte; i += 1 }
    out
  }
}

/** MSB-first bit reader over a byte array produced by [[BitWriter]]. Bytes
  * move into a 64-bit accumulator as it empties.
  */
final class BitReader(bytes: Array[Byte]) {
  private var next  = 0   // index of the next byte to load
  private var acc   = 0L  // loaded bits not yet read, left-aligned
  private var avail = 0   // number of them

  /** Bits remaining before the end of the buffer (including zero padding). */
  def remaining: Long = (bytes.length.toLong - next) * 8 + avail

  private def refill(): Unit =
    while (avail <= 56 && next < bytes.length) {
      acc |= (bytes(next) & 0xFFL) << (56 - avail)
      avail += 8
      next += 1
    }

  // The top `n` bits of the accumulator, 1 <= n <= avail.
  private def take(n: Int): Long = {
    val out = acc >>> (64 - n)
    acc = if (n == 64) 0L else acc << n
    avail -= n
    out
  }

  /** Read `n` bits MSB-first into the low bits of the result. */
  def readBits(n: Int): Long = {
    if (n < 0 || n > 64) throw new IllegalArgumentException(s"bad bit count $n")
    if (remaining < n) throw new IllegalArgumentException(s"bit underflow: need $n, have $remaining")
    if (n == 0) return 0L
    if (avail < n) refill()
    if (avail >= n) take(n)
    else {
      // 57 or more bits were loaded, and bytes remain for the rest.
      val first = avail
      val high  = take(first)
      refill()
      (high << (n - first)) | take(n - first)
    }
  }

  /** Read a single bit. */
  def readBit(): Boolean = readBits(1) == 1L
}
