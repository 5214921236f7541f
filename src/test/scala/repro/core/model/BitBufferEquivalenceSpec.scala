package repro.core.model

import org.scalatest.funsuite.AnyFunSuite

/** [[BitWriter]] and [[BitReader]] against the bit-at-a-time reference: the
  * same bytes written and the same values read back, over random
  * interleavings of `writeBits` of every width and `writeBit`.
  */
class BitBufferEquivalenceSpec extends AnyFunSuite {
  import BitBufferEquivalenceSpec.Op

  private def ops(rng: scala.util.Random): Seq[Op] =
    Seq.fill(1 + rng.nextInt(40))(Op(rng.nextInt(66) - 1, rng.nextLong()))

  test("10,000 random interleavings write the same bytes and read the same values") {
    val rng = new scala.util.Random(2015)
    (0 until 10000).foreach { round =>
      val seq = ops(rng)
      val w   = new BitWriter(initialCapacity = 1 + rng.nextInt(16))
      val ref = new BitWriterReference
      seq.foreach {
        case Op(-1, v) => w.writeBit((v & 1) != 0); ref.writeBit((v & 1) != 0)
        case Op(n, v)  => w.writeBits(v, n); ref.writeBits(v, n)
      }
      val bytes = w.toBytes
      assert(w.sizeInBits == ref.sizeInBits, s"round $round")
      assert(w.sizeInBytes == bytes.length, s"round $round")
      assert(bytes.sameElements(ref.toBytes), s"round $round: $seq")

      val r    = new BitReader(bytes)
      val rRef = new BitReaderReference(bytes)
      seq.foreach { op =>
        if (op.width == -1) assert(r.readBit() == rRef.readBit(), s"round $round")
        else assert(r.readBits(op.width) == rRef.readBits(op.width), s"round $round")
        assert(r.remaining == rRef.remaining, s"round $round")
      }
      // The zero padding reads back too, and nothing more.
      val tail = r.remaining.toInt
      assert(r.readBits(tail) == rRef.readBits(tail) && r.remaining == 0, s"round $round")
      intercept[IllegalArgumentException](r.readBits(1))
    }
  }
}

object BitBufferEquivalenceSpec {
  /** One write: a width of -1 stands for `writeBit`. */
  final case class Op(width: Int, value: Long)
}
