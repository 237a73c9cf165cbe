//! Pinned observations of every port the `next_event` contract covers:
//! the stream, random and write-mix traces under each arrival pattern, on
//! the ideal port, on one and eight HBM channels under every scheduling
//! and page policy, and under a two-entry queue.
//!
//! Each row records what the ticking driver sees: the final cycle, the
//! traffic counter, the DRAM statistics (zero on the ideal port) and a
//! digest of every `(delivery cycle, tag)` pair. A host-side rewrite of
//! a controller must leave this table untouched and green. On a mismatch
//! the failure message prints the measured rows in source form, so a
//! deliberate timing change re-pins by copy and paste.

use std::fmt::Debug;

use super::*;

/// `[final cycle, traffic bytes, reads, writes, row hits, row conflicts,
/// row empty, data bytes, bus busy cycles, delivery digest]`.
type Counts = [u64; 10];
/// `(trace, port, arrival pattern, counts)`.
type Row = (&'static str, &'static str, &'static str, Counts);

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("stream", "ideal", "at once", [1219, 38400, 0, 0, 0, 0, 0, 0, 0, 13669942389670937965]),
    ("stream", "ideal", "bursts", [14835, 38400, 0, 0, 0, 0, 0, 0, 0, 12574680169627278533]),
    ("stream", "ideal", "trickle", [22184, 38400, 0, 0, 0, 0, 0, 0, 0, 10504447361429872954]),
    ("stream", "hbm x1 FrFcfs OpenAdaptive", "at once", [1293, 38400, 600, 0, 559, 0, 41, 38400, 1200, 3900923424365131221]),
    ("stream", "hbm x1 FrFcfs OpenAdaptive", "bursts", [14905, 38400, 600, 0, 524, 0, 76, 38400, 1200, 1676633802791610138]),
    ("stream", "hbm x1 FrFcfs OpenAdaptive", "trickle", [22237, 38400, 600, 0, 37, 0, 563, 38400, 1200, 4895411295199415392]),
    ("stream", "hbm x1 FrFcfs Open", "at once", [1256, 38400, 600, 0, 562, 22, 16, 38400, 1200, 2708405141282188819]),
    ("stream", "hbm x1 FrFcfs Open", "bursts", [14881, 38400, 600, 0, 562, 22, 16, 38400, 1200, 13004893462108278698]),
    ("stream", "hbm x1 FrFcfs Open", "trickle", [22188, 38400, 600, 0, 562, 22, 16, 38400, 1200, 936271029286706206]),
    ("stream", "hbm x1 FrFcfs Closed", "at once", [5128, 38400, 600, 0, 0, 0, 600, 38400, 1200, 13985342057199047143]),
    ("stream", "hbm x1 FrFcfs Closed", "bursts", [15133, 38400, 600, 0, 0, 0, 600, 38400, 1200, 5905213861159918525]),
    ("stream", "hbm x1 FrFcfs Closed", "trickle", [22237, 38400, 600, 0, 0, 0, 600, 38400, 1200, 1234202068588782115]),
    ("stream", "hbm x1 Fcfs OpenAdaptive", "at once", [2862, 38400, 600, 0, 561, 0, 39, 38400, 1200, 9428317709286012031]),
    ("stream", "hbm x1 Fcfs OpenAdaptive", "bursts", [14905, 38400, 600, 0, 524, 0, 76, 38400, 1200, 1676633802791610138]),
    ("stream", "hbm x1 Fcfs OpenAdaptive", "trickle", [22237, 38400, 600, 0, 37, 0, 563, 38400, 1200, 4895411295199415392]),
    ("stream", "hbm x1 Fcfs Open", "at once", [3130, 38400, 600, 0, 562, 22, 16, 38400, 1200, 8259607856590902067]),
    ("stream", "hbm x1 Fcfs Open", "bursts", [14881, 38400, 600, 0, 562, 22, 16, 38400, 1200, 13004893462108278698]),
    ("stream", "hbm x1 Fcfs Open", "trickle", [22188, 38400, 600, 0, 562, 22, 16, 38400, 1200, 936271029286706206]),
    ("stream", "hbm x1 Fcfs Closed", "at once", [23680, 38400, 600, 0, 0, 0, 600, 38400, 1200, 14881317266744240151]),
    ("stream", "hbm x1 Fcfs Closed", "bursts", [23680, 38400, 600, 0, 0, 0, 600, 38400, 1200, 14881317266744240151]),
    ("stream", "hbm x1 Fcfs Closed", "trickle", [23680, 38400, 600, 0, 0, 0, 600, 38400, 1200, 14881317266744240151]),
    ("stream", "hbm x8 FrFcfs OpenAdaptive", "at once", [634, 38400, 600, 0, 488, 0, 112, 38400, 1200, 2595275223672099220]),
    ("stream", "hbm x8 FrFcfs OpenAdaptive", "bursts", [14846, 38400, 600, 0, 0, 0, 600, 38400, 1200, 5497642368855698133]),
    ("stream", "hbm x8 FrFcfs OpenAdaptive", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 9472501239360927924]),
    ("stream", "hbm x8 FrFcfs Open", "at once", [624, 38400, 600, 0, 560, 0, 40, 38400, 1200, 12714275049917401852]),
    ("stream", "hbm x8 FrFcfs Open", "bursts", [14832, 38400, 600, 0, 560, 0, 40, 38400, 1200, 14732907829447396525]),
    ("stream", "hbm x8 FrFcfs Open", "trickle", [22188, 38400, 600, 0, 560, 0, 40, 38400, 1200, 746556622005339336]),
    ("stream", "hbm x8 FrFcfs Closed", "at once", [1060, 38400, 600, 0, 0, 0, 600, 38400, 1200, 9830677852844175892]),
    ("stream", "hbm x8 FrFcfs Closed", "bursts", [14846, 38400, 600, 0, 0, 0, 600, 38400, 1200, 5497642368855698133]),
    ("stream", "hbm x8 FrFcfs Closed", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 9472501239360927924]),
    ("stream", "hbm x8 Fcfs OpenAdaptive", "at once", [632, 38400, 600, 0, 488, 0, 112, 38400, 1200, 16888473713079709999]),
    ("stream", "hbm x8 Fcfs OpenAdaptive", "bursts", [14846, 38400, 600, 0, 0, 0, 600, 38400, 1200, 5497642368855698133]),
    ("stream", "hbm x8 Fcfs OpenAdaptive", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 9472501239360927924]),
    ("stream", "hbm x8 Fcfs Open", "at once", [624, 38400, 600, 0, 560, 0, 40, 38400, 1200, 12714275049917401852]),
    ("stream", "hbm x8 Fcfs Open", "bursts", [14832, 38400, 600, 0, 560, 0, 40, 38400, 1200, 14732907829447396525]),
    ("stream", "hbm x8 Fcfs Open", "trickle", [22188, 38400, 600, 0, 560, 0, 40, 38400, 1200, 746556622005339336]),
    ("stream", "hbm x8 Fcfs Closed", "at once", [2990, 38400, 600, 0, 0, 0, 600, 38400, 1200, 1942530940031592681]),
    ("stream", "hbm x8 Fcfs Closed", "bursts", [14846, 38400, 600, 0, 0, 0, 600, 38400, 1200, 5497642368855698133]),
    ("stream", "hbm x8 Fcfs Closed", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 9472501239360927924]),
    ("stream", "hbm x1, queue depth 2", "at once", [4120, 38400, 600, 0, 524, 0, 76, 38400, 1200, 13775670816992698208]),
    ("stream", "hbm x1, queue depth 2", "bursts", [14905, 38400, 600, 0, 524, 0, 76, 38400, 1200, 1676633802791610138]),
    ("stream", "hbm x1, queue depth 2", "trickle", [22237, 38400, 600, 0, 37, 0, 563, 38400, 1200, 4895411295199415392]),
    ("stream", "hbm x8, queue depth 2", "at once", [950, 38400, 600, 0, 408, 0, 192, 38400, 1200, 2245680324718652236]),
    ("stream", "hbm x8, queue depth 2", "bursts", [14846, 38400, 600, 0, 0, 0, 600, 38400, 1200, 5497642368855698133]),
    ("stream", "hbm x8, queue depth 2", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 9472501239360927924]),
    ("random", "ideal", "at once", [1219, 38400, 0, 0, 0, 0, 0, 0, 0, 13669942389670937965]),
    ("random", "ideal", "bursts", [14835, 38400, 0, 0, 0, 0, 0, 0, 0, 12574680169627278533]),
    ("random", "ideal", "trickle", [22184, 38400, 0, 0, 0, 0, 0, 0, 0, 10504447361429872954]),
    ("random", "hbm x1 FrFcfs OpenAdaptive", "at once", [1907, 38400, 600, 0, 17, 0, 583, 38400, 1200, 12006330974737566297]),
    ("random", "hbm x1 FrFcfs OpenAdaptive", "bursts", [14885, 38400, 600, 0, 1, 0, 599, 38400, 1200, 13558440465673397466]),
    ("random", "hbm x1 FrFcfs OpenAdaptive", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 16868963654349377097]),
    ("random", "hbm x1 FrFcfs Open", "at once", [1848, 38400, 600, 0, 30, 554, 16, 38400, 1200, 17353970228855398129]),
    ("random", "hbm x1 FrFcfs Open", "bursts", [14899, 38400, 600, 0, 10, 574, 16, 38400, 1200, 11234179554769694410]),
    ("random", "hbm x1 FrFcfs Open", "trickle", [22216, 38400, 600, 0, 10, 574, 16, 38400, 1200, 7347881737233046572]),
    ("random", "hbm x1 FrFcfs Closed", "at once", [1991, 38400, 600, 0, 0, 0, 600, 38400, 1200, 18017777874139760470]),
    ("random", "hbm x1 FrFcfs Closed", "bursts", [14885, 38400, 600, 0, 0, 0, 600, 38400, 1200, 1664852874210968210]),
    ("random", "hbm x1 FrFcfs Closed", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 16868963654349377097]),
    ("random", "hbm x1 Fcfs OpenAdaptive", "at once", [5644, 38400, 600, 0, 8, 11, 581, 38400, 1200, 17015119555861420853]),
    ("random", "hbm x1 Fcfs OpenAdaptive", "bursts", [14885, 38400, 600, 0, 2, 0, 598, 38400, 1200, 1129940323774041912]),
    ("random", "hbm x1 Fcfs OpenAdaptive", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 16868963654349377097]),
    ("random", "hbm x1 Fcfs Open", "at once", [4715, 38400, 600, 0, 10, 574, 16, 38400, 1200, 12875607137297928255]),
    ("random", "hbm x1 Fcfs Open", "bursts", [14899, 38400, 600, 0, 10, 574, 16, 38400, 1200, 2327413863213186882]),
    ("random", "hbm x1 Fcfs Open", "trickle", [22216, 38400, 600, 0, 10, 574, 16, 38400, 1200, 7347881737233046572]),
    ("random", "hbm x1 Fcfs Closed", "at once", [5668, 38400, 600, 0, 0, 0, 600, 38400, 1200, 18173203186813523348]),
    ("random", "hbm x1 Fcfs Closed", "bursts", [14885, 38400, 600, 0, 0, 0, 600, 38400, 1200, 6792032348169152516]),
    ("random", "hbm x1 Fcfs Closed", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 16868963654349377097]),
    ("random", "hbm x8 FrFcfs OpenAdaptive", "at once", [697, 38400, 600, 0, 5, 0, 595, 38400, 1200, 16256326082121637145]),
    ("random", "hbm x8 FrFcfs OpenAdaptive", "bursts", [14847, 38400, 600, 0, 0, 0, 600, 38400, 1200, 7331182441654966652]),
    ("random", "hbm x8 FrFcfs OpenAdaptive", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 17586859716619637640]),
    ("random", "hbm x8 FrFcfs Open", "at once", [711, 38400, 600, 0, 66, 406, 128, 38400, 1200, 9457055091372066366]),
    ("random", "hbm x8 FrFcfs Open", "bursts", [14861, 38400, 600, 0, 64, 408, 128, 38400, 1200, 7655973601737201950]),
    ("random", "hbm x8 FrFcfs Open", "trickle", [22216, 38400, 600, 0, 64, 408, 128, 38400, 1200, 17182304840190574911]),
    ("random", "hbm x8 FrFcfs Closed", "at once", [697, 38400, 600, 0, 0, 0, 600, 38400, 1200, 12160610023368673964]),
    ("random", "hbm x8 FrFcfs Closed", "bursts", [14847, 38400, 600, 0, 0, 0, 600, 38400, 1200, 7331182441654966652]),
    ("random", "hbm x8 FrFcfs Closed", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 17586859716619637640]),
    ("random", "hbm x8 Fcfs OpenAdaptive", "at once", [797, 38400, 600, 0, 25, 7, 568, 38400, 1200, 4534675945717420858]),
    ("random", "hbm x8 Fcfs OpenAdaptive", "bursts", [14847, 38400, 600, 0, 0, 0, 600, 38400, 1200, 6148203298094672116]),
    ("random", "hbm x8 Fcfs OpenAdaptive", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 17586859716619637640]),
    ("random", "hbm x8 Fcfs Open", "at once", [742, 38400, 600, 0, 64, 408, 128, 38400, 1200, 7480786490155156917]),
    ("random", "hbm x8 Fcfs Open", "bursts", [14861, 38400, 600, 0, 64, 408, 128, 38400, 1200, 7366425231462886686]),
    ("random", "hbm x8 Fcfs Open", "trickle", [22216, 38400, 600, 0, 64, 408, 128, 38400, 1200, 17182304840190574911]),
    ("random", "hbm x8 Fcfs Closed", "at once", [846, 38400, 600, 0, 0, 0, 600, 38400, 1200, 13107445040190429482]),
    ("random", "hbm x8 Fcfs Closed", "bursts", [14847, 38400, 600, 0, 0, 0, 600, 38400, 1200, 6148203298094672116]),
    ("random", "hbm x8 Fcfs Closed", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 17586859716619637640]),
    ("random", "hbm x1, queue depth 2", "at once", [4128, 38400, 600, 0, 0, 0, 600, 38400, 1200, 14504191592629237209]),
    ("random", "hbm x1, queue depth 2", "bursts", [14885, 38400, 600, 0, 0, 0, 600, 38400, 1200, 17614633607183733415]),
    ("random", "hbm x1, queue depth 2", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 16868963654349377097]),
    ("random", "hbm x8, queue depth 2", "at once", [1071, 38400, 600, 0, 2, 0, 598, 38400, 1200, 13135189283428802614]),
    ("random", "hbm x8, queue depth 2", "bursts", [14847, 38400, 600, 0, 0, 0, 600, 38400, 1200, 7331182441654966652]),
    ("random", "hbm x8, queue depth 2", "trickle", [22202, 38400, 600, 0, 0, 0, 600, 38400, 1200, 17586859716619637640]),
    ("write mix", "ideal", "at once", [1219, 38400, 0, 0, 0, 0, 0, 0, 0, 12110338126030123721]),
    ("write mix", "ideal", "bursts", [14835, 38400, 0, 0, 0, 0, 0, 0, 0, 12817350655800519897]),
    ("write mix", "ideal", "trickle", [22184, 38400, 0, 0, 0, 0, 0, 0, 0, 11891074231648476216]),
    ("write mix", "hbm x1 FrFcfs OpenAdaptive", "at once", [1431, 38400, 300, 300, 73, 0, 527, 38400, 1200, 8169686444995407965]),
    ("write mix", "hbm x1 FrFcfs OpenAdaptive", "bursts", [14851, 38400, 300, 300, 0, 0, 600, 38400, 1200, 13087503920883121518]),
    ("write mix", "hbm x1 FrFcfs OpenAdaptive", "trickle", [22165, 38400, 300, 300, 0, 0, 600, 38400, 1200, 9235284239520629264]),
    ("write mix", "hbm x1 FrFcfs Open", "at once", [1254, 38400, 300, 300, 359, 225, 16, 38400, 1200, 10194440339776406078]),
    ("write mix", "hbm x1 FrFcfs Open", "bursts", [14865, 38400, 300, 300, 0, 584, 16, 38400, 1200, 11464350327217733003]),
    ("write mix", "hbm x1 FrFcfs Open", "trickle", [22179, 38400, 300, 300, 0, 584, 16, 38400, 1200, 634312314140547174]),
    ("write mix", "hbm x1 FrFcfs Closed", "at once", [1719, 38400, 300, 300, 0, 0, 600, 38400, 1200, 17490883500475392781]),
    ("write mix", "hbm x1 FrFcfs Closed", "bursts", [14851, 38400, 300, 300, 0, 0, 600, 38400, 1200, 13087503920883121518]),
    ("write mix", "hbm x1 FrFcfs Closed", "trickle", [22165, 38400, 300, 300, 0, 0, 600, 38400, 1200, 9235284239520629264]),
    ("write mix", "hbm x1 Fcfs OpenAdaptive", "at once", [2025, 38400, 300, 300, 0, 0, 600, 38400, 1200, 4073215274579103235]),
    ("write mix", "hbm x1 Fcfs OpenAdaptive", "bursts", [14851, 38400, 300, 300, 0, 0, 600, 38400, 1200, 2382278887798994803]),
    ("write mix", "hbm x1 Fcfs OpenAdaptive", "trickle", [22165, 38400, 300, 300, 0, 0, 600, 38400, 1200, 9235284239520629264]),
    ("write mix", "hbm x1 Fcfs Open", "at once", [2005, 38400, 300, 300, 0, 584, 16, 38400, 1200, 14152018138741563454]),
    ("write mix", "hbm x1 Fcfs Open", "bursts", [14865, 38400, 300, 300, 0, 584, 16, 38400, 1200, 7054601278298866415]),
    ("write mix", "hbm x1 Fcfs Open", "trickle", [22179, 38400, 300, 300, 0, 584, 16, 38400, 1200, 634312314140547174]),
    ("write mix", "hbm x1 Fcfs Closed", "at once", [2025, 38400, 300, 300, 0, 0, 600, 38400, 1200, 4073215274579103235]),
    ("write mix", "hbm x1 Fcfs Closed", "bursts", [14851, 38400, 300, 300, 0, 0, 600, 38400, 1200, 2382278887798994803]),
    ("write mix", "hbm x1 Fcfs Closed", "trickle", [22165, 38400, 300, 300, 0, 0, 600, 38400, 1200, 9235284239520629264]),
    ("write mix", "hbm x8 FrFcfs OpenAdaptive", "at once", [673, 38400, 300, 300, 11, 0, 589, 38400, 1200, 16698979005551660807]),
    ("write mix", "hbm x8 FrFcfs OpenAdaptive", "bursts", [14881, 38400, 300, 300, 0, 0, 600, 38400, 1200, 9938087352122092441]),
    ("write mix", "hbm x8 FrFcfs OpenAdaptive", "trickle", [22165, 38400, 300, 300, 0, 0, 600, 38400, 1200, 835614685750090588]),
    ("write mix", "hbm x8 FrFcfs Open", "at once", [623, 38400, 300, 300, 536, 0, 64, 38400, 1200, 12479302125732808443]),
    ("write mix", "hbm x8 FrFcfs Open", "bursts", [14831, 38400, 300, 300, 536, 0, 64, 38400, 1200, 7405077798337520063]),
    ("write mix", "hbm x8 FrFcfs Open", "trickle", [22164, 38400, 300, 300, 536, 0, 64, 38400, 1200, 13171125041480643425]),
    ("write mix", "hbm x8 FrFcfs Closed", "at once", [678, 38400, 300, 300, 0, 0, 600, 38400, 1200, 15479767146033310113]),
    ("write mix", "hbm x8 FrFcfs Closed", "bursts", [14881, 38400, 300, 300, 0, 0, 600, 38400, 1200, 9938087352122092441]),
    ("write mix", "hbm x8 FrFcfs Closed", "trickle", [22165, 38400, 300, 300, 0, 0, 600, 38400, 1200, 835614685750090588]),
    ("write mix", "hbm x8 Fcfs OpenAdaptive", "at once", [660, 38400, 300, 300, 121, 0, 479, 38400, 1200, 2802311076738962280]),
    ("write mix", "hbm x8 Fcfs OpenAdaptive", "bursts", [14881, 38400, 300, 300, 0, 0, 600, 38400, 1200, 9938087352122092441]),
    ("write mix", "hbm x8 Fcfs OpenAdaptive", "trickle", [22165, 38400, 300, 300, 0, 0, 600, 38400, 1200, 835614685750090588]),
    ("write mix", "hbm x8 Fcfs Open", "at once", [623, 38400, 300, 300, 536, 0, 64, 38400, 1200, 6159987339400217859]),
    ("write mix", "hbm x8 Fcfs Open", "bursts", [14831, 38400, 300, 300, 536, 0, 64, 38400, 1200, 5908235396193318239]),
    ("write mix", "hbm x8 Fcfs Open", "trickle", [22164, 38400, 300, 300, 536, 0, 64, 38400, 1200, 13171125041480643425]),
    ("write mix", "hbm x8 Fcfs Closed", "at once", [1088, 38400, 300, 300, 0, 0, 600, 38400, 1200, 2373030180887097735]),
    ("write mix", "hbm x8 Fcfs Closed", "bursts", [14881, 38400, 300, 300, 0, 0, 600, 38400, 1200, 9938087352122092441]),
    ("write mix", "hbm x8 Fcfs Closed", "trickle", [22165, 38400, 300, 300, 0, 0, 600, 38400, 1200, 835614685750090588]),
    ("write mix", "hbm x1, queue depth 2", "at once", [1917, 38400, 300, 300, 0, 0, 600, 38400, 1200, 5561035668771780468]),
    ("write mix", "hbm x1, queue depth 2", "bursts", [14851, 38400, 300, 300, 0, 0, 600, 38400, 1200, 13087503920883121518]),
    ("write mix", "hbm x1, queue depth 2", "trickle", [22165, 38400, 300, 300, 0, 0, 600, 38400, 1200, 9235284239520629264]),
    ("write mix", "hbm x8, queue depth 2", "at once", [814, 38400, 300, 300, 3, 0, 597, 38400, 1200, 922289222449906273]),
    ("write mix", "hbm x8, queue depth 2", "bursts", [14881, 38400, 300, 300, 0, 0, 600, 38400, 1200, 9938087352122092441]),
    ("write mix", "hbm x8, queue depth 2", "trickle", [22165, 38400, 300, 300, 0, 0, 600, 38400, 1200, 835614685750090588]),
];

/// `(trace, port, arrival pattern, [probes of the ticking driver, probes
/// of the skipping driver])`: the queue entries and bank records the
/// controllers' schedulers examined over the trace's 600 requests
/// (`HbmChannel::sched_probes`). The two drivers make different numbers
/// of calls, so only each driver's own count is pinned.
type ProbeRow = (&'static str, &'static str, &'static str, [u64; 2]);

#[rustfmt::skip]
const PROBES: &[ProbeRow] = &[
    ("stream", "hbm x1 FrFcfs OpenAdaptive", "at once", [3054, 3054]),
    ("stream", "hbm x1 FrFcfs OpenAdaptive", "bursts", [1648, 1648]),
    ("stream", "hbm x1 FrFcfs OpenAdaptive", "trickle", [674, 674]),
    ("stream", "hbm x1 FrFcfs Open", "at once", [2914, 2914]),
    ("stream", "hbm x1 FrFcfs Open", "bursts", [1162, 1162]),
    ("stream", "hbm x1 FrFcfs Open", "trickle", [1162, 1162]),
    ("stream", "hbm x1 FrFcfs Closed", "at once", [2814, 2814]),
    ("stream", "hbm x1 FrFcfs Closed", "bursts", [1044, 1044]),
    ("stream", "hbm x1 FrFcfs Closed", "trickle", [674, 674]),
    ("stream", "hbm x1 Fcfs OpenAdaptive", "at once", [2253, 2253]),
    ("stream", "hbm x1 Fcfs OpenAdaptive", "bursts", [1048, 1048]),
    ("stream", "hbm x1 Fcfs OpenAdaptive", "trickle", [74, 74]),
    ("stream", "hbm x1 Fcfs Open", "at once", [2235, 2235]),
    ("stream", "hbm x1 Fcfs Open", "bursts", [524, 524]),
    ("stream", "hbm x1 Fcfs Open", "trickle", [0, 0]),
    ("stream", "hbm x1 Fcfs Closed", "at once", [1692, 1692]),
    ("stream", "hbm x1 Fcfs Closed", "bursts", [1640, 1640]),
    ("stream", "hbm x1 Fcfs Closed", "trickle", [1229, 1229]),
    ("stream", "hbm x8 FrFcfs OpenAdaptive", "at once", [1376, 1376]),
    ("stream", "hbm x8 FrFcfs OpenAdaptive", "bursts", [600, 600]),
    ("stream", "hbm x8 FrFcfs OpenAdaptive", "trickle", [600, 600]),
    ("stream", "hbm x8 FrFcfs Open", "at once", [1160, 1160]),
    ("stream", "hbm x8 FrFcfs Open", "bursts", [1160, 1160]),
    ("stream", "hbm x8 FrFcfs Open", "trickle", [1160, 1160]),
    ("stream", "hbm x8 FrFcfs Closed", "at once", [2016, 2016]),
    ("stream", "hbm x8 FrFcfs Closed", "bursts", [600, 600]),
    ("stream", "hbm x8 FrFcfs Closed", "trickle", [600, 600]),
    ("stream", "hbm x8 Fcfs OpenAdaptive", "at once", [704, 704]),
    ("stream", "hbm x8 Fcfs OpenAdaptive", "bursts", [0, 0]),
    ("stream", "hbm x8 Fcfs OpenAdaptive", "trickle", [0, 0]),
    ("stream", "hbm x8 Fcfs Open", "at once", [40, 40]),
    ("stream", "hbm x8 Fcfs Open", "bursts", [0, 0]),
    ("stream", "hbm x8 Fcfs Open", "trickle", [0, 0]),
    ("stream", "hbm x8 Fcfs Closed", "at once", [1344, 1344]),
    ("stream", "hbm x8 Fcfs Closed", "bursts", [0, 0]),
    ("stream", "hbm x8 Fcfs Closed", "trickle", [0, 0]),
    ("stream", "hbm x1, queue depth 2", "at once", [1236, 1236]),
    ("stream", "hbm x1, queue depth 2", "bursts", [1162, 1162]),
    ("stream", "hbm x1, queue depth 2", "trickle", [674, 674]),
    ("stream", "hbm x8, queue depth 2", "at once", [1192, 1192]),
    ("stream", "hbm x8, queue depth 2", "bursts", [600, 600]),
    ("stream", "hbm x8, queue depth 2", "trickle", [600, 600]),
    ("random", "hbm x1 FrFcfs OpenAdaptive", "at once", [7725, 7725]),
    ("random", "hbm x1 FrFcfs OpenAdaptive", "bursts", [1565, 1565]),
    ("random", "hbm x1 FrFcfs OpenAdaptive", "trickle", [600, 600]),
    ("random", "hbm x1 FrFcfs Open", "at once", [7527, 7527]),
    ("random", "hbm x1 FrFcfs Open", "bursts", [1567, 1567]),
    ("random", "hbm x1 FrFcfs Open", "trickle", [610, 610]),
    ("random", "hbm x1 FrFcfs Closed", "at once", [6628, 6628]),
    ("random", "hbm x1 FrFcfs Closed", "bursts", [1509, 1509]),
    ("random", "hbm x1 FrFcfs Closed", "trickle", [600, 600]),
    ("random", "hbm x1 Fcfs OpenAdaptive", "at once", [9129, 9129]),
    ("random", "hbm x1 Fcfs OpenAdaptive", "bursts", [2051, 2051]),
    ("random", "hbm x1 Fcfs OpenAdaptive", "trickle", [0, 0]),
    ("random", "hbm x1 Fcfs Open", "at once", [9114, 9114]),
    ("random", "hbm x1 Fcfs Open", "bursts", [2048, 2048]),
    ("random", "hbm x1 Fcfs Open", "trickle", [0, 0]),
    ("random", "hbm x1 Fcfs Closed", "at once", [8025, 8025]),
    ("random", "hbm x1 Fcfs Closed", "bursts", [1909, 1909]),
    ("random", "hbm x1 Fcfs Closed", "trickle", [0, 0]),
    ("random", "hbm x8 FrFcfs OpenAdaptive", "at once", [1157, 1157]),
    ("random", "hbm x8 FrFcfs OpenAdaptive", "bursts", [624, 624]),
    ("random", "hbm x8 FrFcfs OpenAdaptive", "trickle", [600, 600]),
    ("random", "hbm x8 FrFcfs Open", "at once", [933, 933]),
    ("random", "hbm x8 FrFcfs Open", "bursts", [682, 682]),
    ("random", "hbm x8 FrFcfs Open", "trickle", [664, 664]),
    ("random", "hbm x8 FrFcfs Closed", "at once", [1123, 1123]),
    ("random", "hbm x8 FrFcfs Closed", "bursts", [624, 624]),
    ("random", "hbm x8 FrFcfs Closed", "trickle", [600, 600]),
    ("random", "hbm x8 Fcfs OpenAdaptive", "at once", [3125, 3125]),
    ("random", "hbm x8 Fcfs OpenAdaptive", "bursts", [39, 39]),
    ("random", "hbm x8 Fcfs OpenAdaptive", "trickle", [0, 0]),
    ("random", "hbm x8 Fcfs Open", "at once", [1158, 1158]),
    ("random", "hbm x8 Fcfs Open", "bursts", [23, 23]),
    ("random", "hbm x8 Fcfs Open", "trickle", [0, 0]),
    ("random", "hbm x8 Fcfs Closed", "at once", [3085, 3085]),
    ("random", "hbm x8 Fcfs Closed", "bursts", [39, 39]),
    ("random", "hbm x8 Fcfs Closed", "trickle", [0, 0]),
    ("random", "hbm x1, queue depth 2", "at once", [1194, 1194]),
    ("random", "hbm x1, queue depth 2", "bursts", [988, 988]),
    ("random", "hbm x1, queue depth 2", "trickle", [600, 600]),
    ("random", "hbm x8, queue depth 2", "at once", [769, 769]),
    ("random", "hbm x8, queue depth 2", "bursts", [624, 624]),
    ("random", "hbm x8, queue depth 2", "trickle", [600, 600]),
    ("write mix", "hbm x1 FrFcfs OpenAdaptive", "at once", [9938, 9938]),
    ("write mix", "hbm x1 FrFcfs OpenAdaptive", "bursts", [714, 714]),
    ("write mix", "hbm x1 FrFcfs OpenAdaptive", "trickle", [600, 600]),
    ("write mix", "hbm x1 FrFcfs Open", "at once", [12715, 12715]),
    ("write mix", "hbm x1 FrFcfs Open", "bursts", [714, 714]),
    ("write mix", "hbm x1 FrFcfs Open", "trickle", [600, 600]),
    ("write mix", "hbm x1 FrFcfs Closed", "at once", [9117, 9117]),
    ("write mix", "hbm x1 FrFcfs Closed", "bursts", [714, 714]),
    ("write mix", "hbm x1 FrFcfs Closed", "trickle", [600, 600]),
    ("write mix", "hbm x1 Fcfs OpenAdaptive", "at once", [9797, 9797]),
    ("write mix", "hbm x1 Fcfs OpenAdaptive", "bursts", [642, 642]),
    ("write mix", "hbm x1 Fcfs OpenAdaptive", "trickle", [0, 0]),
    ("write mix", "hbm x1 Fcfs Open", "at once", [9553, 9553]),
    ("write mix", "hbm x1 Fcfs Open", "bursts", [642, 642]),
    ("write mix", "hbm x1 Fcfs Open", "trickle", [0, 0]),
    ("write mix", "hbm x1 Fcfs Closed", "at once", [9206, 9206]),
    ("write mix", "hbm x1 Fcfs Closed", "bursts", [642, 642]),
    ("write mix", "hbm x1 Fcfs Closed", "trickle", [0, 0]),
    ("write mix", "hbm x8 FrFcfs OpenAdaptive", "at once", [1103, 1103]),
    ("write mix", "hbm x8 FrFcfs OpenAdaptive", "bursts", [607, 607]),
    ("write mix", "hbm x8 FrFcfs OpenAdaptive", "trickle", [600, 600]),
    ("write mix", "hbm x8 FrFcfs Open", "at once", [1141, 1141]),
    ("write mix", "hbm x8 FrFcfs Open", "bursts", [1141, 1141]),
    ("write mix", "hbm x8 FrFcfs Open", "trickle", [1136, 1136]),
    ("write mix", "hbm x8 FrFcfs Closed", "at once", [1125, 1125]),
    ("write mix", "hbm x8 FrFcfs Closed", "bursts", [607, 607]),
    ("write mix", "hbm x8 FrFcfs Closed", "trickle", [600, 600]),
    ("write mix", "hbm x8 Fcfs OpenAdaptive", "at once", [821, 821]),
    ("write mix", "hbm x8 Fcfs OpenAdaptive", "bursts", [7, 7]),
    ("write mix", "hbm x8 Fcfs OpenAdaptive", "trickle", [0, 0]),
    ("write mix", "hbm x8 Fcfs Open", "at once", [5, 5]),
    ("write mix", "hbm x8 Fcfs Open", "bursts", [5, 5]),
    ("write mix", "hbm x8 Fcfs Open", "trickle", [0, 0]),
    ("write mix", "hbm x8 Fcfs Closed", "at once", [3508, 3508]),
    ("write mix", "hbm x8 Fcfs Closed", "bursts", [7, 7]),
    ("write mix", "hbm x8 Fcfs Closed", "trickle", [0, 0]),
    ("write mix", "hbm x1, queue depth 2", "at once", [1183, 1183]),
    ("write mix", "hbm x1, queue depth 2", "bursts", [714, 714]),
    ("write mix", "hbm x1, queue depth 2", "trickle", [600, 600]),
    ("write mix", "hbm x8, queue depth 2", "at once", [1067, 1067]),
    ("write mix", "hbm x8, queue depth 2", "bursts", [607, 607]),
    ("write mix", "hbm x8, queue depth 2", "trickle", [600, 600]),
];

/// FNV-1a over every response's delivery cycle and tag, in delivery
/// order.
fn delivery_digest(delivered: &[(Cycle, WideResponse)]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (cycle, r) in delivered {
        for byte in cycle.to_le_bytes().into_iter().chain(r.tag.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

fn counts(o: &Observed) -> Counts {
    let s = o.2.unwrap_or_default();
    [
        o.1,
        o.3,
        s.reads,
        s.writes,
        s.row_hits,
        s.row_conflicts,
        s.row_empty,
        s.data_bytes,
        s.bus_busy_cycles,
        delivery_digest(&o.0),
    ]
}

/// Compares rows by their source form, so a measured row's `String`
/// port name matches a pinned `&str`.
fn check(what: &str, pinned: &[impl Debug], measured: &[impl Debug]) {
    let drifted: Vec<String> = measured
        .iter()
        .enumerate()
        .map(|(i, row)| (pinned.get(i).map(|p| format!("{p:?}")), format!("{row:?}")))
        .filter(|(pinned, row)| pinned.as_ref() != Some(row))
        .map(|(_, row)| format!("    {row},"))
        .collect();
    assert!(
        drifted.is_empty() && pinned.len() == measured.len(),
        "{what} drifted ({} of {} rows); measured rows:\n{}",
        drifted.len(),
        measured.len(),
        drifted.join("\n")
    );
}

#[test]
fn every_port_matches_the_pinned_table() {
    let mut measured = Vec::new();
    for (trace_name, trace) in traces() {
        for (port, build) in ports()
            .into_iter()
            .chain(depth_two_ports().into_iter().map(hbm_build))
        {
            for (pattern, arrivals) in arrival_patterns(trace.len()) {
                let observed = drive(&mut *build(), &trace, &arrivals, false);
                measured.push((trace_name, port.clone(), pattern, counts(&observed)));
            }
        }
    }
    check("port counts", PINNED, &measured);
}

#[test]
fn scheduler_probes_match_the_pinned_table() {
    let mut measured = Vec::new();
    for (trace_name, trace) in traces() {
        for (port, cfg, channels) in policy_ports().into_iter().chain(depth_two_ports()) {
            for (pattern, arrivals) in arrival_patterns(trace.len()) {
                let probes = [false, true].map(|skip| {
                    let mut chan = HbmChannel::interleaved(cfg.clone(), image(), channels);
                    drive(&mut chan, &trace, &arrivals, skip);
                    chan.sched_probes()
                });
                measured.push((trace_name, port.clone(), pattern, probes));
            }
        }
    }
    check("scheduler probes", PROBES, &measured);
}
