// Generated by xpipesCompiler — routing tables (shortest-path).
#ifndef XPIPES_ROUTES_H
#define XPIPES_ROUTES_H

static const unsigned XPIPES_PORT_BITS = 3;
static const unsigned XPIPES_MAX_HOPS = 5;

// NI 0 -> NI 1
static const unsigned char xpipes_route_0_1[] = {5};
// NI 0 -> NI 3
static const unsigned char xpipes_route_0_3[] = {0, 5};
// NI 0 -> NI 5
static const unsigned char xpipes_route_0_5[] = {0, 0, 5};
// NI 0 -> NI 7
static const unsigned char xpipes_route_0_7[] = {1, 5};
// NI 0 -> NI 9
static const unsigned char xpipes_route_0_9[] = {2, 5};
// NI 0 -> NI 11
static const unsigned char xpipes_route_0_11[] = {0, 2, 5};
// NI 0 -> NI 13
static const unsigned char xpipes_route_0_13[] = {0, 0, 2, 5};
// NI 0 -> NI 15
static const unsigned char xpipes_route_0_15[] = {1, 2, 5};
// NI 0 -> NI 17
static const unsigned char xpipes_route_0_17[] = {2, 2, 5};
// NI 0 -> NI 19
static const unsigned char xpipes_route_0_19[] = {0, 2, 2, 5};
// NI 0 -> NI 21
static const unsigned char xpipes_route_0_21[] = {0, 0, 2, 2, 5};
// NI 0 -> NI 23
static const unsigned char xpipes_route_0_23[] = {1, 2, 2, 5};
// NI 0 -> NI 25
static const unsigned char xpipes_route_0_25[] = {3, 5};
// NI 0 -> NI 27
static const unsigned char xpipes_route_0_27[] = {0, 3, 5};
// NI 0 -> NI 29
static const unsigned char xpipes_route_0_29[] = {0, 0, 3, 5};
// NI 0 -> NI 31
static const unsigned char xpipes_route_0_31[] = {1, 3, 5};
// NI 1 -> NI 0
static const unsigned char xpipes_route_1_0[] = {4};
// NI 1 -> NI 2
static const unsigned char xpipes_route_1_2[] = {0, 4};
// NI 1 -> NI 4
static const unsigned char xpipes_route_1_4[] = {0, 0, 4};
// NI 1 -> NI 6
static const unsigned char xpipes_route_1_6[] = {1, 4};
// NI 1 -> NI 8
static const unsigned char xpipes_route_1_8[] = {2, 4};
// NI 1 -> NI 10
static const unsigned char xpipes_route_1_10[] = {0, 2, 4};
// NI 1 -> NI 12
static const unsigned char xpipes_route_1_12[] = {0, 0, 2, 4};
// NI 1 -> NI 14
static const unsigned char xpipes_route_1_14[] = {1, 2, 4};
// NI 1 -> NI 16
static const unsigned char xpipes_route_1_16[] = {2, 2, 4};
// NI 1 -> NI 18
static const unsigned char xpipes_route_1_18[] = {0, 2, 2, 4};
// NI 1 -> NI 20
static const unsigned char xpipes_route_1_20[] = {0, 0, 2, 2, 4};
// NI 1 -> NI 22
static const unsigned char xpipes_route_1_22[] = {1, 2, 2, 4};
// NI 1 -> NI 24
static const unsigned char xpipes_route_1_24[] = {3, 4};
// NI 1 -> NI 26
static const unsigned char xpipes_route_1_26[] = {0, 3, 4};
// NI 1 -> NI 28
static const unsigned char xpipes_route_1_28[] = {0, 0, 3, 4};
// NI 1 -> NI 30
static const unsigned char xpipes_route_1_30[] = {1, 3, 4};
// NI 2 -> NI 1
static const unsigned char xpipes_route_2_1[] = {1, 5};
// NI 2 -> NI 3
static const unsigned char xpipes_route_2_3[] = {5};
// NI 2 -> NI 5
static const unsigned char xpipes_route_2_5[] = {0, 5};
// NI 2 -> NI 7
static const unsigned char xpipes_route_2_7[] = {0, 0, 5};
// NI 2 -> NI 9
static const unsigned char xpipes_route_2_9[] = {1, 2, 5};
// NI 2 -> NI 11
static const unsigned char xpipes_route_2_11[] = {2, 5};
// NI 2 -> NI 13
static const unsigned char xpipes_route_2_13[] = {0, 2, 5};
// NI 2 -> NI 15
static const unsigned char xpipes_route_2_15[] = {0, 0, 2, 5};
// NI 2 -> NI 17
static const unsigned char xpipes_route_2_17[] = {1, 2, 2, 5};
// NI 2 -> NI 19
static const unsigned char xpipes_route_2_19[] = {2, 2, 5};
// NI 2 -> NI 21
static const unsigned char xpipes_route_2_21[] = {0, 2, 2, 5};
// NI 2 -> NI 23
static const unsigned char xpipes_route_2_23[] = {0, 0, 2, 2, 5};
// NI 2 -> NI 25
static const unsigned char xpipes_route_2_25[] = {1, 3, 5};
// NI 2 -> NI 27
static const unsigned char xpipes_route_2_27[] = {3, 5};
// NI 2 -> NI 29
static const unsigned char xpipes_route_2_29[] = {0, 3, 5};
// NI 2 -> NI 31
static const unsigned char xpipes_route_2_31[] = {0, 0, 3, 5};
// NI 3 -> NI 0
static const unsigned char xpipes_route_3_0[] = {1, 4};
// NI 3 -> NI 2
static const unsigned char xpipes_route_3_2[] = {4};
// NI 3 -> NI 4
static const unsigned char xpipes_route_3_4[] = {0, 4};
// NI 3 -> NI 6
static const unsigned char xpipes_route_3_6[] = {0, 0, 4};
// NI 3 -> NI 8
static const unsigned char xpipes_route_3_8[] = {1, 2, 4};
// NI 3 -> NI 10
static const unsigned char xpipes_route_3_10[] = {2, 4};
// NI 3 -> NI 12
static const unsigned char xpipes_route_3_12[] = {0, 2, 4};
// NI 3 -> NI 14
static const unsigned char xpipes_route_3_14[] = {0, 0, 2, 4};
// NI 3 -> NI 16
static const unsigned char xpipes_route_3_16[] = {1, 2, 2, 4};
// NI 3 -> NI 18
static const unsigned char xpipes_route_3_18[] = {2, 2, 4};
// NI 3 -> NI 20
static const unsigned char xpipes_route_3_20[] = {0, 2, 2, 4};
// NI 3 -> NI 22
static const unsigned char xpipes_route_3_22[] = {0, 0, 2, 2, 4};
// NI 3 -> NI 24
static const unsigned char xpipes_route_3_24[] = {1, 3, 4};
// NI 3 -> NI 26
static const unsigned char xpipes_route_3_26[] = {3, 4};
// NI 3 -> NI 28
static const unsigned char xpipes_route_3_28[] = {0, 3, 4};
// NI 3 -> NI 30
static const unsigned char xpipes_route_3_30[] = {0, 0, 3, 4};
// NI 4 -> NI 1
static const unsigned char xpipes_route_4_1[] = {0, 0, 5};
// NI 4 -> NI 3
static const unsigned char xpipes_route_4_3[] = {1, 5};
// NI 4 -> NI 5
static const unsigned char xpipes_route_4_5[] = {5};
// NI 4 -> NI 7
static const unsigned char xpipes_route_4_7[] = {0, 5};
// NI 4 -> NI 9
static const unsigned char xpipes_route_4_9[] = {0, 0, 2, 5};
// NI 4 -> NI 11
static const unsigned char xpipes_route_4_11[] = {1, 2, 5};
// NI 4 -> NI 13
static const unsigned char xpipes_route_4_13[] = {2, 5};
// NI 4 -> NI 15
static const unsigned char xpipes_route_4_15[] = {0, 2, 5};
// NI 4 -> NI 17
static const unsigned char xpipes_route_4_17[] = {0, 0, 2, 2, 5};
// NI 4 -> NI 19
static const unsigned char xpipes_route_4_19[] = {1, 2, 2, 5};
// NI 4 -> NI 21
static const unsigned char xpipes_route_4_21[] = {2, 2, 5};
// NI 4 -> NI 23
static const unsigned char xpipes_route_4_23[] = {0, 2, 2, 5};
// NI 4 -> NI 25
static const unsigned char xpipes_route_4_25[] = {0, 0, 3, 5};
// NI 4 -> NI 27
static const unsigned char xpipes_route_4_27[] = {1, 3, 5};
// NI 4 -> NI 29
static const unsigned char xpipes_route_4_29[] = {3, 5};
// NI 4 -> NI 31
static const unsigned char xpipes_route_4_31[] = {0, 3, 5};
// NI 5 -> NI 0
static const unsigned char xpipes_route_5_0[] = {0, 0, 4};
// NI 5 -> NI 2
static const unsigned char xpipes_route_5_2[] = {1, 4};
// NI 5 -> NI 4
static const unsigned char xpipes_route_5_4[] = {4};
// NI 5 -> NI 6
static const unsigned char xpipes_route_5_6[] = {0, 4};
// NI 5 -> NI 8
static const unsigned char xpipes_route_5_8[] = {0, 0, 2, 4};
// NI 5 -> NI 10
static const unsigned char xpipes_route_5_10[] = {1, 2, 4};
// NI 5 -> NI 12
static const unsigned char xpipes_route_5_12[] = {2, 4};
// NI 5 -> NI 14
static const unsigned char xpipes_route_5_14[] = {0, 2, 4};
// NI 5 -> NI 16
static const unsigned char xpipes_route_5_16[] = {0, 0, 2, 2, 4};
// NI 5 -> NI 18
static const unsigned char xpipes_route_5_18[] = {1, 2, 2, 4};
// NI 5 -> NI 20
static const unsigned char xpipes_route_5_20[] = {2, 2, 4};
// NI 5 -> NI 22
static const unsigned char xpipes_route_5_22[] = {0, 2, 2, 4};
// NI 5 -> NI 24
static const unsigned char xpipes_route_5_24[] = {0, 0, 3, 4};
// NI 5 -> NI 26
static const unsigned char xpipes_route_5_26[] = {1, 3, 4};
// NI 5 -> NI 28
static const unsigned char xpipes_route_5_28[] = {3, 4};
// NI 5 -> NI 30
static const unsigned char xpipes_route_5_30[] = {0, 3, 4};
// NI 6 -> NI 1
static const unsigned char xpipes_route_6_1[] = {0, 5};
// NI 6 -> NI 3
static const unsigned char xpipes_route_6_3[] = {0, 0, 5};
// NI 6 -> NI 5
static const unsigned char xpipes_route_6_5[] = {1, 5};
// NI 6 -> NI 7
static const unsigned char xpipes_route_6_7[] = {5};
// NI 6 -> NI 9
static const unsigned char xpipes_route_6_9[] = {0, 2, 5};
// NI 6 -> NI 11
static const unsigned char xpipes_route_6_11[] = {0, 0, 2, 5};
// NI 6 -> NI 13
static const unsigned char xpipes_route_6_13[] = {1, 2, 5};
// NI 6 -> NI 15
static const unsigned char xpipes_route_6_15[] = {2, 5};
// NI 6 -> NI 17
static const unsigned char xpipes_route_6_17[] = {0, 2, 2, 5};
// NI 6 -> NI 19
static const unsigned char xpipes_route_6_19[] = {0, 0, 2, 2, 5};
// NI 6 -> NI 21
static const unsigned char xpipes_route_6_21[] = {1, 2, 2, 5};
// NI 6 -> NI 23
static const unsigned char xpipes_route_6_23[] = {2, 2, 5};
// NI 6 -> NI 25
static const unsigned char xpipes_route_6_25[] = {0, 3, 5};
// NI 6 -> NI 27
static const unsigned char xpipes_route_6_27[] = {0, 0, 3, 5};
// NI 6 -> NI 29
static const unsigned char xpipes_route_6_29[] = {1, 3, 5};
// NI 6 -> NI 31
static const unsigned char xpipes_route_6_31[] = {3, 5};
// NI 7 -> NI 0
static const unsigned char xpipes_route_7_0[] = {0, 4};
// NI 7 -> NI 2
static const unsigned char xpipes_route_7_2[] = {0, 0, 4};
// NI 7 -> NI 4
static const unsigned char xpipes_route_7_4[] = {1, 4};
// NI 7 -> NI 6
static const unsigned char xpipes_route_7_6[] = {4};
// NI 7 -> NI 8
static const unsigned char xpipes_route_7_8[] = {0, 2, 4};
// NI 7 -> NI 10
static const unsigned char xpipes_route_7_10[] = {0, 0, 2, 4};
// NI 7 -> NI 12
static const unsigned char xpipes_route_7_12[] = {1, 2, 4};
// NI 7 -> NI 14
static const unsigned char xpipes_route_7_14[] = {2, 4};
// NI 7 -> NI 16
static const unsigned char xpipes_route_7_16[] = {0, 2, 2, 4};
// NI 7 -> NI 18
static const unsigned char xpipes_route_7_18[] = {0, 0, 2, 2, 4};
// NI 7 -> NI 20
static const unsigned char xpipes_route_7_20[] = {1, 2, 2, 4};
// NI 7 -> NI 22
static const unsigned char xpipes_route_7_22[] = {2, 2, 4};
// NI 7 -> NI 24
static const unsigned char xpipes_route_7_24[] = {0, 3, 4};
// NI 7 -> NI 26
static const unsigned char xpipes_route_7_26[] = {0, 0, 3, 4};
// NI 7 -> NI 28
static const unsigned char xpipes_route_7_28[] = {1, 3, 4};
// NI 7 -> NI 30
static const unsigned char xpipes_route_7_30[] = {3, 4};
// NI 8 -> NI 1
static const unsigned char xpipes_route_8_1[] = {3, 5};
// NI 8 -> NI 3
static const unsigned char xpipes_route_8_3[] = {0, 3, 5};
// NI 8 -> NI 5
static const unsigned char xpipes_route_8_5[] = {0, 0, 3, 5};
// NI 8 -> NI 7
static const unsigned char xpipes_route_8_7[] = {1, 3, 5};
// NI 8 -> NI 9
static const unsigned char xpipes_route_8_9[] = {5};
// NI 8 -> NI 11
static const unsigned char xpipes_route_8_11[] = {0, 5};
// NI 8 -> NI 13
static const unsigned char xpipes_route_8_13[] = {0, 0, 5};
// NI 8 -> NI 15
static const unsigned char xpipes_route_8_15[] = {1, 5};
// NI 8 -> NI 17
static const unsigned char xpipes_route_8_17[] = {2, 5};
// NI 8 -> NI 19
static const unsigned char xpipes_route_8_19[] = {0, 2, 5};
// NI 8 -> NI 21
static const unsigned char xpipes_route_8_21[] = {0, 0, 2, 5};
// NI 8 -> NI 23
static const unsigned char xpipes_route_8_23[] = {1, 2, 5};
// NI 8 -> NI 25
static const unsigned char xpipes_route_8_25[] = {2, 2, 5};
// NI 8 -> NI 27
static const unsigned char xpipes_route_8_27[] = {0, 2, 2, 5};
// NI 8 -> NI 29
static const unsigned char xpipes_route_8_29[] = {0, 0, 2, 2, 5};
// NI 8 -> NI 31
static const unsigned char xpipes_route_8_31[] = {1, 2, 2, 5};
// NI 9 -> NI 0
static const unsigned char xpipes_route_9_0[] = {3, 4};
// NI 9 -> NI 2
static const unsigned char xpipes_route_9_2[] = {0, 3, 4};
// NI 9 -> NI 4
static const unsigned char xpipes_route_9_4[] = {0, 0, 3, 4};
// NI 9 -> NI 6
static const unsigned char xpipes_route_9_6[] = {1, 3, 4};
// NI 9 -> NI 8
static const unsigned char xpipes_route_9_8[] = {4};
// NI 9 -> NI 10
static const unsigned char xpipes_route_9_10[] = {0, 4};
// NI 9 -> NI 12
static const unsigned char xpipes_route_9_12[] = {0, 0, 4};
// NI 9 -> NI 14
static const unsigned char xpipes_route_9_14[] = {1, 4};
// NI 9 -> NI 16
static const unsigned char xpipes_route_9_16[] = {2, 4};
// NI 9 -> NI 18
static const unsigned char xpipes_route_9_18[] = {0, 2, 4};
// NI 9 -> NI 20
static const unsigned char xpipes_route_9_20[] = {0, 0, 2, 4};
// NI 9 -> NI 22
static const unsigned char xpipes_route_9_22[] = {1, 2, 4};
// NI 9 -> NI 24
static const unsigned char xpipes_route_9_24[] = {2, 2, 4};
// NI 9 -> NI 26
static const unsigned char xpipes_route_9_26[] = {0, 2, 2, 4};
// NI 9 -> NI 28
static const unsigned char xpipes_route_9_28[] = {0, 0, 2, 2, 4};
// NI 9 -> NI 30
static const unsigned char xpipes_route_9_30[] = {1, 2, 2, 4};
// NI 10 -> NI 1
static const unsigned char xpipes_route_10_1[] = {1, 3, 5};
// NI 10 -> NI 3
static const unsigned char xpipes_route_10_3[] = {3, 5};
// NI 10 -> NI 5
static const unsigned char xpipes_route_10_5[] = {0, 3, 5};
// NI 10 -> NI 7
static const unsigned char xpipes_route_10_7[] = {0, 0, 3, 5};
// NI 10 -> NI 9
static const unsigned char xpipes_route_10_9[] = {1, 5};
// NI 10 -> NI 11
static const unsigned char xpipes_route_10_11[] = {5};
// NI 10 -> NI 13
static const unsigned char xpipes_route_10_13[] = {0, 5};
// NI 10 -> NI 15
static const unsigned char xpipes_route_10_15[] = {0, 0, 5};
// NI 10 -> NI 17
static const unsigned char xpipes_route_10_17[] = {1, 2, 5};
// NI 10 -> NI 19
static const unsigned char xpipes_route_10_19[] = {2, 5};
// NI 10 -> NI 21
static const unsigned char xpipes_route_10_21[] = {0, 2, 5};
// NI 10 -> NI 23
static const unsigned char xpipes_route_10_23[] = {0, 0, 2, 5};
// NI 10 -> NI 25
static const unsigned char xpipes_route_10_25[] = {1, 2, 2, 5};
// NI 10 -> NI 27
static const unsigned char xpipes_route_10_27[] = {2, 2, 5};
// NI 10 -> NI 29
static const unsigned char xpipes_route_10_29[] = {0, 2, 2, 5};
// NI 10 -> NI 31
static const unsigned char xpipes_route_10_31[] = {0, 0, 2, 2, 5};
// NI 11 -> NI 0
static const unsigned char xpipes_route_11_0[] = {1, 3, 4};
// NI 11 -> NI 2
static const unsigned char xpipes_route_11_2[] = {3, 4};
// NI 11 -> NI 4
static const unsigned char xpipes_route_11_4[] = {0, 3, 4};
// NI 11 -> NI 6
static const unsigned char xpipes_route_11_6[] = {0, 0, 3, 4};
// NI 11 -> NI 8
static const unsigned char xpipes_route_11_8[] = {1, 4};
// NI 11 -> NI 10
static const unsigned char xpipes_route_11_10[] = {4};
// NI 11 -> NI 12
static const unsigned char xpipes_route_11_12[] = {0, 4};
// NI 11 -> NI 14
static const unsigned char xpipes_route_11_14[] = {0, 0, 4};
// NI 11 -> NI 16
static const unsigned char xpipes_route_11_16[] = {1, 2, 4};
// NI 11 -> NI 18
static const unsigned char xpipes_route_11_18[] = {2, 4};
// NI 11 -> NI 20
static const unsigned char xpipes_route_11_20[] = {0, 2, 4};
// NI 11 -> NI 22
static const unsigned char xpipes_route_11_22[] = {0, 0, 2, 4};
// NI 11 -> NI 24
static const unsigned char xpipes_route_11_24[] = {1, 2, 2, 4};
// NI 11 -> NI 26
static const unsigned char xpipes_route_11_26[] = {2, 2, 4};
// NI 11 -> NI 28
static const unsigned char xpipes_route_11_28[] = {0, 2, 2, 4};
// NI 11 -> NI 30
static const unsigned char xpipes_route_11_30[] = {0, 0, 2, 2, 4};
// NI 12 -> NI 1
static const unsigned char xpipes_route_12_1[] = {0, 0, 3, 5};
// NI 12 -> NI 3
static const unsigned char xpipes_route_12_3[] = {1, 3, 5};
// NI 12 -> NI 5
static const unsigned char xpipes_route_12_5[] = {3, 5};
// NI 12 -> NI 7
static const unsigned char xpipes_route_12_7[] = {0, 3, 5};
// NI 12 -> NI 9
static const unsigned char xpipes_route_12_9[] = {0, 0, 5};
// NI 12 -> NI 11
static const unsigned char xpipes_route_12_11[] = {1, 5};
// NI 12 -> NI 13
static const unsigned char xpipes_route_12_13[] = {5};
// NI 12 -> NI 15
static const unsigned char xpipes_route_12_15[] = {0, 5};
// NI 12 -> NI 17
static const unsigned char xpipes_route_12_17[] = {0, 0, 2, 5};
// NI 12 -> NI 19
static const unsigned char xpipes_route_12_19[] = {1, 2, 5};
// NI 12 -> NI 21
static const unsigned char xpipes_route_12_21[] = {2, 5};
// NI 12 -> NI 23
static const unsigned char xpipes_route_12_23[] = {0, 2, 5};
// NI 12 -> NI 25
static const unsigned char xpipes_route_12_25[] = {0, 0, 2, 2, 5};
// NI 12 -> NI 27
static const unsigned char xpipes_route_12_27[] = {1, 2, 2, 5};
// NI 12 -> NI 29
static const unsigned char xpipes_route_12_29[] = {2, 2, 5};
// NI 12 -> NI 31
static const unsigned char xpipes_route_12_31[] = {0, 2, 2, 5};
// NI 13 -> NI 0
static const unsigned char xpipes_route_13_0[] = {0, 0, 3, 4};
// NI 13 -> NI 2
static const unsigned char xpipes_route_13_2[] = {1, 3, 4};
// NI 13 -> NI 4
static const unsigned char xpipes_route_13_4[] = {3, 4};
// NI 13 -> NI 6
static const unsigned char xpipes_route_13_6[] = {0, 3, 4};
// NI 13 -> NI 8
static const unsigned char xpipes_route_13_8[] = {0, 0, 4};
// NI 13 -> NI 10
static const unsigned char xpipes_route_13_10[] = {1, 4};
// NI 13 -> NI 12
static const unsigned char xpipes_route_13_12[] = {4};
// NI 13 -> NI 14
static const unsigned char xpipes_route_13_14[] = {0, 4};
// NI 13 -> NI 16
static const unsigned char xpipes_route_13_16[] = {0, 0, 2, 4};
// NI 13 -> NI 18
static const unsigned char xpipes_route_13_18[] = {1, 2, 4};
// NI 13 -> NI 20
static const unsigned char xpipes_route_13_20[] = {2, 4};
// NI 13 -> NI 22
static const unsigned char xpipes_route_13_22[] = {0, 2, 4};
// NI 13 -> NI 24
static const unsigned char xpipes_route_13_24[] = {0, 0, 2, 2, 4};
// NI 13 -> NI 26
static const unsigned char xpipes_route_13_26[] = {1, 2, 2, 4};
// NI 13 -> NI 28
static const unsigned char xpipes_route_13_28[] = {2, 2, 4};
// NI 13 -> NI 30
static const unsigned char xpipes_route_13_30[] = {0, 2, 2, 4};
// NI 14 -> NI 1
static const unsigned char xpipes_route_14_1[] = {0, 3, 5};
// NI 14 -> NI 3
static const unsigned char xpipes_route_14_3[] = {0, 0, 3, 5};
// NI 14 -> NI 5
static const unsigned char xpipes_route_14_5[] = {1, 3, 5};
// NI 14 -> NI 7
static const unsigned char xpipes_route_14_7[] = {3, 5};
// NI 14 -> NI 9
static const unsigned char xpipes_route_14_9[] = {0, 5};
// NI 14 -> NI 11
static const unsigned char xpipes_route_14_11[] = {0, 0, 5};
// NI 14 -> NI 13
static const unsigned char xpipes_route_14_13[] = {1, 5};
// NI 14 -> NI 15
static const unsigned char xpipes_route_14_15[] = {5};
// NI 14 -> NI 17
static const unsigned char xpipes_route_14_17[] = {0, 2, 5};
// NI 14 -> NI 19
static const unsigned char xpipes_route_14_19[] = {0, 0, 2, 5};
// NI 14 -> NI 21
static const unsigned char xpipes_route_14_21[] = {1, 2, 5};
// NI 14 -> NI 23
static const unsigned char xpipes_route_14_23[] = {2, 5};
// NI 14 -> NI 25
static const unsigned char xpipes_route_14_25[] = {0, 2, 2, 5};
// NI 14 -> NI 27
static const unsigned char xpipes_route_14_27[] = {0, 0, 2, 2, 5};
// NI 14 -> NI 29
static const unsigned char xpipes_route_14_29[] = {1, 2, 2, 5};
// NI 14 -> NI 31
static const unsigned char xpipes_route_14_31[] = {2, 2, 5};
// NI 15 -> NI 0
static const unsigned char xpipes_route_15_0[] = {0, 3, 4};
// NI 15 -> NI 2
static const unsigned char xpipes_route_15_2[] = {0, 0, 3, 4};
// NI 15 -> NI 4
static const unsigned char xpipes_route_15_4[] = {1, 3, 4};
// NI 15 -> NI 6
static const unsigned char xpipes_route_15_6[] = {3, 4};
// NI 15 -> NI 8
static const unsigned char xpipes_route_15_8[] = {0, 4};
// NI 15 -> NI 10
static const unsigned char xpipes_route_15_10[] = {0, 0, 4};
// NI 15 -> NI 12
static const unsigned char xpipes_route_15_12[] = {1, 4};
// NI 15 -> NI 14
static const unsigned char xpipes_route_15_14[] = {4};
// NI 15 -> NI 16
static const unsigned char xpipes_route_15_16[] = {0, 2, 4};
// NI 15 -> NI 18
static const unsigned char xpipes_route_15_18[] = {0, 0, 2, 4};
// NI 15 -> NI 20
static const unsigned char xpipes_route_15_20[] = {1, 2, 4};
// NI 15 -> NI 22
static const unsigned char xpipes_route_15_22[] = {2, 4};
// NI 15 -> NI 24
static const unsigned char xpipes_route_15_24[] = {0, 2, 2, 4};
// NI 15 -> NI 26
static const unsigned char xpipes_route_15_26[] = {0, 0, 2, 2, 4};
// NI 15 -> NI 28
static const unsigned char xpipes_route_15_28[] = {1, 2, 2, 4};
// NI 15 -> NI 30
static const unsigned char xpipes_route_15_30[] = {2, 2, 4};
// NI 16 -> NI 1
static const unsigned char xpipes_route_16_1[] = {2, 2, 5};
// NI 16 -> NI 3
static const unsigned char xpipes_route_16_3[] = {0, 2, 2, 5};
// NI 16 -> NI 5
static const unsigned char xpipes_route_16_5[] = {0, 0, 2, 2, 5};
// NI 16 -> NI 7
static const unsigned char xpipes_route_16_7[] = {1, 2, 2, 5};
// NI 16 -> NI 9
static const unsigned char xpipes_route_16_9[] = {3, 5};
// NI 16 -> NI 11
static const unsigned char xpipes_route_16_11[] = {0, 3, 5};
// NI 16 -> NI 13
static const unsigned char xpipes_route_16_13[] = {0, 0, 3, 5};
// NI 16 -> NI 15
static const unsigned char xpipes_route_16_15[] = {1, 3, 5};
// NI 16 -> NI 17
static const unsigned char xpipes_route_16_17[] = {5};
// NI 16 -> NI 19
static const unsigned char xpipes_route_16_19[] = {0, 5};
// NI 16 -> NI 21
static const unsigned char xpipes_route_16_21[] = {0, 0, 5};
// NI 16 -> NI 23
static const unsigned char xpipes_route_16_23[] = {1, 5};
// NI 16 -> NI 25
static const unsigned char xpipes_route_16_25[] = {2, 5};
// NI 16 -> NI 27
static const unsigned char xpipes_route_16_27[] = {0, 2, 5};
// NI 16 -> NI 29
static const unsigned char xpipes_route_16_29[] = {0, 0, 2, 5};
// NI 16 -> NI 31
static const unsigned char xpipes_route_16_31[] = {1, 2, 5};
// NI 17 -> NI 0
static const unsigned char xpipes_route_17_0[] = {2, 2, 4};
// NI 17 -> NI 2
static const unsigned char xpipes_route_17_2[] = {0, 2, 2, 4};
// NI 17 -> NI 4
static const unsigned char xpipes_route_17_4[] = {0, 0, 2, 2, 4};
// NI 17 -> NI 6
static const unsigned char xpipes_route_17_6[] = {1, 2, 2, 4};
// NI 17 -> NI 8
static const unsigned char xpipes_route_17_8[] = {3, 4};
// NI 17 -> NI 10
static const unsigned char xpipes_route_17_10[] = {0, 3, 4};
// NI 17 -> NI 12
static const unsigned char xpipes_route_17_12[] = {0, 0, 3, 4};
// NI 17 -> NI 14
static const unsigned char xpipes_route_17_14[] = {1, 3, 4};
// NI 17 -> NI 16
static const unsigned char xpipes_route_17_16[] = {4};
// NI 17 -> NI 18
static const unsigned char xpipes_route_17_18[] = {0, 4};
// NI 17 -> NI 20
static const unsigned char xpipes_route_17_20[] = {0, 0, 4};
// NI 17 -> NI 22
static const unsigned char xpipes_route_17_22[] = {1, 4};
// NI 17 -> NI 24
static const unsigned char xpipes_route_17_24[] = {2, 4};
// NI 17 -> NI 26
static const unsigned char xpipes_route_17_26[] = {0, 2, 4};
// NI 17 -> NI 28
static const unsigned char xpipes_route_17_28[] = {0, 0, 2, 4};
// NI 17 -> NI 30
static const unsigned char xpipes_route_17_30[] = {1, 2, 4};
// NI 18 -> NI 1
static const unsigned char xpipes_route_18_1[] = {1, 2, 2, 5};
// NI 18 -> NI 3
static const unsigned char xpipes_route_18_3[] = {2, 2, 5};
// NI 18 -> NI 5
static const unsigned char xpipes_route_18_5[] = {0, 2, 2, 5};
// NI 18 -> NI 7
static const unsigned char xpipes_route_18_7[] = {0, 0, 2, 2, 5};
// NI 18 -> NI 9
static const unsigned char xpipes_route_18_9[] = {1, 3, 5};
// NI 18 -> NI 11
static const unsigned char xpipes_route_18_11[] = {3, 5};
// NI 18 -> NI 13
static const unsigned char xpipes_route_18_13[] = {0, 3, 5};
// NI 18 -> NI 15
static const unsigned char xpipes_route_18_15[] = {0, 0, 3, 5};
// NI 18 -> NI 17
static const unsigned char xpipes_route_18_17[] = {1, 5};
// NI 18 -> NI 19
static const unsigned char xpipes_route_18_19[] = {5};
// NI 18 -> NI 21
static const unsigned char xpipes_route_18_21[] = {0, 5};
// NI 18 -> NI 23
static const unsigned char xpipes_route_18_23[] = {0, 0, 5};
// NI 18 -> NI 25
static const unsigned char xpipes_route_18_25[] = {1, 2, 5};
// NI 18 -> NI 27
static const unsigned char xpipes_route_18_27[] = {2, 5};
// NI 18 -> NI 29
static const unsigned char xpipes_route_18_29[] = {0, 2, 5};
// NI 18 -> NI 31
static const unsigned char xpipes_route_18_31[] = {0, 0, 2, 5};
// NI 19 -> NI 0
static const unsigned char xpipes_route_19_0[] = {1, 2, 2, 4};
// NI 19 -> NI 2
static const unsigned char xpipes_route_19_2[] = {2, 2, 4};
// NI 19 -> NI 4
static const unsigned char xpipes_route_19_4[] = {0, 2, 2, 4};
// NI 19 -> NI 6
static const unsigned char xpipes_route_19_6[] = {0, 0, 2, 2, 4};
// NI 19 -> NI 8
static const unsigned char xpipes_route_19_8[] = {1, 3, 4};
// NI 19 -> NI 10
static const unsigned char xpipes_route_19_10[] = {3, 4};
// NI 19 -> NI 12
static const unsigned char xpipes_route_19_12[] = {0, 3, 4};
// NI 19 -> NI 14
static const unsigned char xpipes_route_19_14[] = {0, 0, 3, 4};
// NI 19 -> NI 16
static const unsigned char xpipes_route_19_16[] = {1, 4};
// NI 19 -> NI 18
static const unsigned char xpipes_route_19_18[] = {4};
// NI 19 -> NI 20
static const unsigned char xpipes_route_19_20[] = {0, 4};
// NI 19 -> NI 22
static const unsigned char xpipes_route_19_22[] = {0, 0, 4};
// NI 19 -> NI 24
static const unsigned char xpipes_route_19_24[] = {1, 2, 4};
// NI 19 -> NI 26
static const unsigned char xpipes_route_19_26[] = {2, 4};
// NI 19 -> NI 28
static const unsigned char xpipes_route_19_28[] = {0, 2, 4};
// NI 19 -> NI 30
static const unsigned char xpipes_route_19_30[] = {0, 0, 2, 4};
// NI 20 -> NI 1
static const unsigned char xpipes_route_20_1[] = {0, 0, 2, 2, 5};
// NI 20 -> NI 3
static const unsigned char xpipes_route_20_3[] = {1, 2, 2, 5};
// NI 20 -> NI 5
static const unsigned char xpipes_route_20_5[] = {2, 2, 5};
// NI 20 -> NI 7
static const unsigned char xpipes_route_20_7[] = {0, 2, 2, 5};
// NI 20 -> NI 9
static const unsigned char xpipes_route_20_9[] = {0, 0, 3, 5};
// NI 20 -> NI 11
static const unsigned char xpipes_route_20_11[] = {1, 3, 5};
// NI 20 -> NI 13
static const unsigned char xpipes_route_20_13[] = {3, 5};
// NI 20 -> NI 15
static const unsigned char xpipes_route_20_15[] = {0, 3, 5};
// NI 20 -> NI 17
static const unsigned char xpipes_route_20_17[] = {0, 0, 5};
// NI 20 -> NI 19
static const unsigned char xpipes_route_20_19[] = {1, 5};
// NI 20 -> NI 21
static const unsigned char xpipes_route_20_21[] = {5};
// NI 20 -> NI 23
static const unsigned char xpipes_route_20_23[] = {0, 5};
// NI 20 -> NI 25
static const unsigned char xpipes_route_20_25[] = {0, 0, 2, 5};
// NI 20 -> NI 27
static const unsigned char xpipes_route_20_27[] = {1, 2, 5};
// NI 20 -> NI 29
static const unsigned char xpipes_route_20_29[] = {2, 5};
// NI 20 -> NI 31
static const unsigned char xpipes_route_20_31[] = {0, 2, 5};
// NI 21 -> NI 0
static const unsigned char xpipes_route_21_0[] = {0, 0, 2, 2, 4};
// NI 21 -> NI 2
static const unsigned char xpipes_route_21_2[] = {1, 2, 2, 4};
// NI 21 -> NI 4
static const unsigned char xpipes_route_21_4[] = {2, 2, 4};
// NI 21 -> NI 6
static const unsigned char xpipes_route_21_6[] = {0, 2, 2, 4};
// NI 21 -> NI 8
static const unsigned char xpipes_route_21_8[] = {0, 0, 3, 4};
// NI 21 -> NI 10
static const unsigned char xpipes_route_21_10[] = {1, 3, 4};
// NI 21 -> NI 12
static const unsigned char xpipes_route_21_12[] = {3, 4};
// NI 21 -> NI 14
static const unsigned char xpipes_route_21_14[] = {0, 3, 4};
// NI 21 -> NI 16
static const unsigned char xpipes_route_21_16[] = {0, 0, 4};
// NI 21 -> NI 18
static const unsigned char xpipes_route_21_18[] = {1, 4};
// NI 21 -> NI 20
static const unsigned char xpipes_route_21_20[] = {4};
// NI 21 -> NI 22
static const unsigned char xpipes_route_21_22[] = {0, 4};
// NI 21 -> NI 24
static const unsigned char xpipes_route_21_24[] = {0, 0, 2, 4};
// NI 21 -> NI 26
static const unsigned char xpipes_route_21_26[] = {1, 2, 4};
// NI 21 -> NI 28
static const unsigned char xpipes_route_21_28[] = {2, 4};
// NI 21 -> NI 30
static const unsigned char xpipes_route_21_30[] = {0, 2, 4};
// NI 22 -> NI 1
static const unsigned char xpipes_route_22_1[] = {0, 2, 2, 5};
// NI 22 -> NI 3
static const unsigned char xpipes_route_22_3[] = {0, 0, 2, 2, 5};
// NI 22 -> NI 5
static const unsigned char xpipes_route_22_5[] = {1, 2, 2, 5};
// NI 22 -> NI 7
static const unsigned char xpipes_route_22_7[] = {2, 2, 5};
// NI 22 -> NI 9
static const unsigned char xpipes_route_22_9[] = {0, 3, 5};
// NI 22 -> NI 11
static const unsigned char xpipes_route_22_11[] = {0, 0, 3, 5};
// NI 22 -> NI 13
static const unsigned char xpipes_route_22_13[] = {1, 3, 5};
// NI 22 -> NI 15
static const unsigned char xpipes_route_22_15[] = {3, 5};
// NI 22 -> NI 17
static const unsigned char xpipes_route_22_17[] = {0, 5};
// NI 22 -> NI 19
static const unsigned char xpipes_route_22_19[] = {0, 0, 5};
// NI 22 -> NI 21
static const unsigned char xpipes_route_22_21[] = {1, 5};
// NI 22 -> NI 23
static const unsigned char xpipes_route_22_23[] = {5};
// NI 22 -> NI 25
static const unsigned char xpipes_route_22_25[] = {0, 2, 5};
// NI 22 -> NI 27
static const unsigned char xpipes_route_22_27[] = {0, 0, 2, 5};
// NI 22 -> NI 29
static const unsigned char xpipes_route_22_29[] = {1, 2, 5};
// NI 22 -> NI 31
static const unsigned char xpipes_route_22_31[] = {2, 5};
// NI 23 -> NI 0
static const unsigned char xpipes_route_23_0[] = {0, 2, 2, 4};
// NI 23 -> NI 2
static const unsigned char xpipes_route_23_2[] = {0, 0, 2, 2, 4};
// NI 23 -> NI 4
static const unsigned char xpipes_route_23_4[] = {1, 2, 2, 4};
// NI 23 -> NI 6
static const unsigned char xpipes_route_23_6[] = {2, 2, 4};
// NI 23 -> NI 8
static const unsigned char xpipes_route_23_8[] = {0, 3, 4};
// NI 23 -> NI 10
static const unsigned char xpipes_route_23_10[] = {0, 0, 3, 4};
// NI 23 -> NI 12
static const unsigned char xpipes_route_23_12[] = {1, 3, 4};
// NI 23 -> NI 14
static const unsigned char xpipes_route_23_14[] = {3, 4};
// NI 23 -> NI 16
static const unsigned char xpipes_route_23_16[] = {0, 4};
// NI 23 -> NI 18
static const unsigned char xpipes_route_23_18[] = {0, 0, 4};
// NI 23 -> NI 20
static const unsigned char xpipes_route_23_20[] = {1, 4};
// NI 23 -> NI 22
static const unsigned char xpipes_route_23_22[] = {4};
// NI 23 -> NI 24
static const unsigned char xpipes_route_23_24[] = {0, 2, 4};
// NI 23 -> NI 26
static const unsigned char xpipes_route_23_26[] = {0, 0, 2, 4};
// NI 23 -> NI 28
static const unsigned char xpipes_route_23_28[] = {1, 2, 4};
// NI 23 -> NI 30
static const unsigned char xpipes_route_23_30[] = {2, 4};
// NI 24 -> NI 1
static const unsigned char xpipes_route_24_1[] = {2, 5};
// NI 24 -> NI 3
static const unsigned char xpipes_route_24_3[] = {0, 2, 5};
// NI 24 -> NI 5
static const unsigned char xpipes_route_24_5[] = {0, 0, 2, 5};
// NI 24 -> NI 7
static const unsigned char xpipes_route_24_7[] = {1, 2, 5};
// NI 24 -> NI 9
static const unsigned char xpipes_route_24_9[] = {2, 2, 5};
// NI 24 -> NI 11
static const unsigned char xpipes_route_24_11[] = {0, 2, 2, 5};
// NI 24 -> NI 13
static const unsigned char xpipes_route_24_13[] = {0, 0, 2, 2, 5};
// NI 24 -> NI 15
static const unsigned char xpipes_route_24_15[] = {1, 2, 2, 5};
// NI 24 -> NI 17
static const unsigned char xpipes_route_24_17[] = {3, 5};
// NI 24 -> NI 19
static const unsigned char xpipes_route_24_19[] = {0, 3, 5};
// NI 24 -> NI 21
static const unsigned char xpipes_route_24_21[] = {0, 0, 3, 5};
// NI 24 -> NI 23
static const unsigned char xpipes_route_24_23[] = {1, 3, 5};
// NI 24 -> NI 25
static const unsigned char xpipes_route_24_25[] = {5};
// NI 24 -> NI 27
static const unsigned char xpipes_route_24_27[] = {0, 5};
// NI 24 -> NI 29
static const unsigned char xpipes_route_24_29[] = {0, 0, 5};
// NI 24 -> NI 31
static const unsigned char xpipes_route_24_31[] = {1, 5};
// NI 25 -> NI 0
static const unsigned char xpipes_route_25_0[] = {2, 4};
// NI 25 -> NI 2
static const unsigned char xpipes_route_25_2[] = {0, 2, 4};
// NI 25 -> NI 4
static const unsigned char xpipes_route_25_4[] = {0, 0, 2, 4};
// NI 25 -> NI 6
static const unsigned char xpipes_route_25_6[] = {1, 2, 4};
// NI 25 -> NI 8
static const unsigned char xpipes_route_25_8[] = {2, 2, 4};
// NI 25 -> NI 10
static const unsigned char xpipes_route_25_10[] = {0, 2, 2, 4};
// NI 25 -> NI 12
static const unsigned char xpipes_route_25_12[] = {0, 0, 2, 2, 4};
// NI 25 -> NI 14
static const unsigned char xpipes_route_25_14[] = {1, 2, 2, 4};
// NI 25 -> NI 16
static const unsigned char xpipes_route_25_16[] = {3, 4};
// NI 25 -> NI 18
static const unsigned char xpipes_route_25_18[] = {0, 3, 4};
// NI 25 -> NI 20
static const unsigned char xpipes_route_25_20[] = {0, 0, 3, 4};
// NI 25 -> NI 22
static const unsigned char xpipes_route_25_22[] = {1, 3, 4};
// NI 25 -> NI 24
static const unsigned char xpipes_route_25_24[] = {4};
// NI 25 -> NI 26
static const unsigned char xpipes_route_25_26[] = {0, 4};
// NI 25 -> NI 28
static const unsigned char xpipes_route_25_28[] = {0, 0, 4};
// NI 25 -> NI 30
static const unsigned char xpipes_route_25_30[] = {1, 4};
// NI 26 -> NI 1
static const unsigned char xpipes_route_26_1[] = {1, 2, 5};
// NI 26 -> NI 3
static const unsigned char xpipes_route_26_3[] = {2, 5};
// NI 26 -> NI 5
static const unsigned char xpipes_route_26_5[] = {0, 2, 5};
// NI 26 -> NI 7
static const unsigned char xpipes_route_26_7[] = {0, 0, 2, 5};
// NI 26 -> NI 9
static const unsigned char xpipes_route_26_9[] = {1, 2, 2, 5};
// NI 26 -> NI 11
static const unsigned char xpipes_route_26_11[] = {2, 2, 5};
// NI 26 -> NI 13
static const unsigned char xpipes_route_26_13[] = {0, 2, 2, 5};
// NI 26 -> NI 15
static const unsigned char xpipes_route_26_15[] = {0, 0, 2, 2, 5};
// NI 26 -> NI 17
static const unsigned char xpipes_route_26_17[] = {1, 3, 5};
// NI 26 -> NI 19
static const unsigned char xpipes_route_26_19[] = {3, 5};
// NI 26 -> NI 21
static const unsigned char xpipes_route_26_21[] = {0, 3, 5};
// NI 26 -> NI 23
static const unsigned char xpipes_route_26_23[] = {0, 0, 3, 5};
// NI 26 -> NI 25
static const unsigned char xpipes_route_26_25[] = {1, 5};
// NI 26 -> NI 27
static const unsigned char xpipes_route_26_27[] = {5};
// NI 26 -> NI 29
static const unsigned char xpipes_route_26_29[] = {0, 5};
// NI 26 -> NI 31
static const unsigned char xpipes_route_26_31[] = {0, 0, 5};
// NI 27 -> NI 0
static const unsigned char xpipes_route_27_0[] = {1, 2, 4};
// NI 27 -> NI 2
static const unsigned char xpipes_route_27_2[] = {2, 4};
// NI 27 -> NI 4
static const unsigned char xpipes_route_27_4[] = {0, 2, 4};
// NI 27 -> NI 6
static const unsigned char xpipes_route_27_6[] = {0, 0, 2, 4};
// NI 27 -> NI 8
static const unsigned char xpipes_route_27_8[] = {1, 2, 2, 4};
// NI 27 -> NI 10
static const unsigned char xpipes_route_27_10[] = {2, 2, 4};
// NI 27 -> NI 12
static const unsigned char xpipes_route_27_12[] = {0, 2, 2, 4};
// NI 27 -> NI 14
static const unsigned char xpipes_route_27_14[] = {0, 0, 2, 2, 4};
// NI 27 -> NI 16
static const unsigned char xpipes_route_27_16[] = {1, 3, 4};
// NI 27 -> NI 18
static const unsigned char xpipes_route_27_18[] = {3, 4};
// NI 27 -> NI 20
static const unsigned char xpipes_route_27_20[] = {0, 3, 4};
// NI 27 -> NI 22
static const unsigned char xpipes_route_27_22[] = {0, 0, 3, 4};
// NI 27 -> NI 24
static const unsigned char xpipes_route_27_24[] = {1, 4};
// NI 27 -> NI 26
static const unsigned char xpipes_route_27_26[] = {4};
// NI 27 -> NI 28
static const unsigned char xpipes_route_27_28[] = {0, 4};
// NI 27 -> NI 30
static const unsigned char xpipes_route_27_30[] = {0, 0, 4};
// NI 28 -> NI 1
static const unsigned char xpipes_route_28_1[] = {0, 0, 2, 5};
// NI 28 -> NI 3
static const unsigned char xpipes_route_28_3[] = {1, 2, 5};
// NI 28 -> NI 5
static const unsigned char xpipes_route_28_5[] = {2, 5};
// NI 28 -> NI 7
static const unsigned char xpipes_route_28_7[] = {0, 2, 5};
// NI 28 -> NI 9
static const unsigned char xpipes_route_28_9[] = {0, 0, 2, 2, 5};
// NI 28 -> NI 11
static const unsigned char xpipes_route_28_11[] = {1, 2, 2, 5};
// NI 28 -> NI 13
static const unsigned char xpipes_route_28_13[] = {2, 2, 5};
// NI 28 -> NI 15
static const unsigned char xpipes_route_28_15[] = {0, 2, 2, 5};
// NI 28 -> NI 17
static const unsigned char xpipes_route_28_17[] = {0, 0, 3, 5};
// NI 28 -> NI 19
static const unsigned char xpipes_route_28_19[] = {1, 3, 5};
// NI 28 -> NI 21
static const unsigned char xpipes_route_28_21[] = {3, 5};
// NI 28 -> NI 23
static const unsigned char xpipes_route_28_23[] = {0, 3, 5};
// NI 28 -> NI 25
static const unsigned char xpipes_route_28_25[] = {0, 0, 5};
// NI 28 -> NI 27
static const unsigned char xpipes_route_28_27[] = {1, 5};
// NI 28 -> NI 29
static const unsigned char xpipes_route_28_29[] = {5};
// NI 28 -> NI 31
static const unsigned char xpipes_route_28_31[] = {0, 5};
// NI 29 -> NI 0
static const unsigned char xpipes_route_29_0[] = {0, 0, 2, 4};
// NI 29 -> NI 2
static const unsigned char xpipes_route_29_2[] = {1, 2, 4};
// NI 29 -> NI 4
static const unsigned char xpipes_route_29_4[] = {2, 4};
// NI 29 -> NI 6
static const unsigned char xpipes_route_29_6[] = {0, 2, 4};
// NI 29 -> NI 8
static const unsigned char xpipes_route_29_8[] = {0, 0, 2, 2, 4};
// NI 29 -> NI 10
static const unsigned char xpipes_route_29_10[] = {1, 2, 2, 4};
// NI 29 -> NI 12
static const unsigned char xpipes_route_29_12[] = {2, 2, 4};
// NI 29 -> NI 14
static const unsigned char xpipes_route_29_14[] = {0, 2, 2, 4};
// NI 29 -> NI 16
static const unsigned char xpipes_route_29_16[] = {0, 0, 3, 4};
// NI 29 -> NI 18
static const unsigned char xpipes_route_29_18[] = {1, 3, 4};
// NI 29 -> NI 20
static const unsigned char xpipes_route_29_20[] = {3, 4};
// NI 29 -> NI 22
static const unsigned char xpipes_route_29_22[] = {0, 3, 4};
// NI 29 -> NI 24
static const unsigned char xpipes_route_29_24[] = {0, 0, 4};
// NI 29 -> NI 26
static const unsigned char xpipes_route_29_26[] = {1, 4};
// NI 29 -> NI 28
static const unsigned char xpipes_route_29_28[] = {4};
// NI 29 -> NI 30
static const unsigned char xpipes_route_29_30[] = {0, 4};
// NI 30 -> NI 1
static const unsigned char xpipes_route_30_1[] = {0, 2, 5};
// NI 30 -> NI 3
static const unsigned char xpipes_route_30_3[] = {0, 0, 2, 5};
// NI 30 -> NI 5
static const unsigned char xpipes_route_30_5[] = {1, 2, 5};
// NI 30 -> NI 7
static const unsigned char xpipes_route_30_7[] = {2, 5};
// NI 30 -> NI 9
static const unsigned char xpipes_route_30_9[] = {0, 2, 2, 5};
// NI 30 -> NI 11
static const unsigned char xpipes_route_30_11[] = {0, 0, 2, 2, 5};
// NI 30 -> NI 13
static const unsigned char xpipes_route_30_13[] = {1, 2, 2, 5};
// NI 30 -> NI 15
static const unsigned char xpipes_route_30_15[] = {2, 2, 5};
// NI 30 -> NI 17
static const unsigned char xpipes_route_30_17[] = {0, 3, 5};
// NI 30 -> NI 19
static const unsigned char xpipes_route_30_19[] = {0, 0, 3, 5};
// NI 30 -> NI 21
static const unsigned char xpipes_route_30_21[] = {1, 3, 5};
// NI 30 -> NI 23
static const unsigned char xpipes_route_30_23[] = {3, 5};
// NI 30 -> NI 25
static const unsigned char xpipes_route_30_25[] = {0, 5};
// NI 30 -> NI 27
static const unsigned char xpipes_route_30_27[] = {0, 0, 5};
// NI 30 -> NI 29
static const unsigned char xpipes_route_30_29[] = {1, 5};
// NI 30 -> NI 31
static const unsigned char xpipes_route_30_31[] = {5};
// NI 31 -> NI 0
static const unsigned char xpipes_route_31_0[] = {0, 2, 4};
// NI 31 -> NI 2
static const unsigned char xpipes_route_31_2[] = {0, 0, 2, 4};
// NI 31 -> NI 4
static const unsigned char xpipes_route_31_4[] = {1, 2, 4};
// NI 31 -> NI 6
static const unsigned char xpipes_route_31_6[] = {2, 4};
// NI 31 -> NI 8
static const unsigned char xpipes_route_31_8[] = {0, 2, 2, 4};
// NI 31 -> NI 10
static const unsigned char xpipes_route_31_10[] = {0, 0, 2, 2, 4};
// NI 31 -> NI 12
static const unsigned char xpipes_route_31_12[] = {1, 2, 2, 4};
// NI 31 -> NI 14
static const unsigned char xpipes_route_31_14[] = {2, 2, 4};
// NI 31 -> NI 16
static const unsigned char xpipes_route_31_16[] = {0, 3, 4};
// NI 31 -> NI 18
static const unsigned char xpipes_route_31_18[] = {0, 0, 3, 4};
// NI 31 -> NI 20
static const unsigned char xpipes_route_31_20[] = {1, 3, 4};
// NI 31 -> NI 22
static const unsigned char xpipes_route_31_22[] = {3, 4};
// NI 31 -> NI 24
static const unsigned char xpipes_route_31_24[] = {0, 4};
// NI 31 -> NI 26
static const unsigned char xpipes_route_31_26[] = {0, 0, 4};
// NI 31 -> NI 28
static const unsigned char xpipes_route_31_28[] = {1, 4};
// NI 31 -> NI 30
static const unsigned char xpipes_route_31_30[] = {4};

#endif  // XPIPES_ROUTES_H
