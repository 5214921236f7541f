package repro.core.storage

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.Types.SegmentRecord

class SegmentCodecSpec extends AnyFunSuite {

  private def randomSegments(n: Int, seed: Long): Seq[SegmentRecord] = {
    val rng = new Random(seed)
    var end = 0L
    (0 until n).map { _ =>
      val si   = Seq(100, 1000, 60000)(rng.nextInt(3))
      val size = 1 + rng.nextInt(50)
      end += rng.nextInt(100000).toLong + 1
      val start  = end - (size - 1).toLong * si
      val mid    = rng.nextInt(5)
      // PMC-Mean and PMC-MR (mids 1, 4) take 4 parameter bytes, Swing (2) 8.
      val plen   = Map(1 -> 4, 4 -> 4, 2 -> 8).getOrElse(mid, rng.nextInt(20))
      val params = Array.fill(plen)(rng.nextInt().toByte)
      SegmentRecord(1 + rng.nextInt(100), start, end, si, mid, params,
                    rng.nextLong() & 0xFFFF)
    }
  }

  test("empty file roundtrip") {
    val bytes = SegmentCodec.encode(Nil)
    assert(SegmentCodec.decode(bytes).isEmpty)
    assert(SegmentCodec.stats(bytes).rows == 0)
  }

  test("single segment roundtrip") {
    val s = SegmentRecord(7, 1000L, 5900L, 100, 1, Array[Byte](1, 2, 3, 4), 0x5L)
    assert(SegmentCodec.decode(SegmentCodec.encode(Seq(s))) == Seq(s))
  }

  test("random segments roundtrip exactly") {
    (0 until 5).foreach { seed =>
      val segs = randomSegments(200, seed)
      assert(SegmentCodec.decode(SegmentCodec.encode(segs)) == segs)
    }
  }

  test("header stats match the content") {
    val segs = randomSegments(50, 99)
    val st   = SegmentCodec.stats(SegmentCodec.encode(segs))
    assert(st.minGid == segs.map(_.gid).min && st.maxGid == segs.map(_.gid).max)
    assert(st.minEnd == segs.map(_.endTime).min && st.maxEnd == segs.map(_.endTime).max)
    assert(st.rows == 50)
  }

  test("start time is recomputed from size, not stored") {
    // a 1-tick segment: start == end regardless of si
    val s = SegmentRecord(1, 500L, 500L, 60000, 2, new Array[Byte](8), 0L)
    assert(SegmentCodec.decode(SegmentCodec.encode(Seq(s))).head.startTime == 500L)
  }

  test("delta encoding beats absolute encoding on sorted segments") {
    val sorted = (0 until 1000).map { i =>
      SegmentRecord(1, i * 5000L, i * 5000L + 4900L, 100, 1, Array[Byte](0, 0, 0, 0), 0L)
    }
    val shuffled = new Random(3).shuffle(sorted)
    assert(SegmentCodec.encode(sorted).length < SegmentCodec.encode(shuffled).length)
  }

  test("bad magic rejected") {
    intercept[IllegalArgumentException](SegmentCodec.stats(Array.fill(33)(0x7F.toByte)))
  }

  test("truncated file rejected") {
    val bytes = SegmentCodec.encode(randomSegments(10, 1))
    intercept[Exception](SegmentCodec.decode(bytes.take(bytes.length - 3)))
  }

  test("varint zigzag roundtrip on extremes") {
    Seq(0L, 1L, -1L, Long.MaxValue, Long.MinValue + 1).foreach { v =>
      assert(SegmentCodec.unzigzag(SegmentCodec.zigzag(v)) == v)
    }
  }
}
