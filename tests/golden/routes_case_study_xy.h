// Generated by xpipesCompiler — routing tables (xy).
#ifndef XPIPES_ROUTES_H
#define XPIPES_ROUTES_H

static const unsigned XPIPES_PORT_BITS = 3;
static const unsigned XPIPES_MAX_HOPS = 6;

// NI 0 -> NI 1
static const unsigned char xpipes_route_0_1[] = {0, 3};
// NI 0 -> NI 2
static const unsigned char xpipes_route_0_2[] = {0, 4};
// NI 0 -> NI 4
static const unsigned char xpipes_route_0_4[] = {0, 1, 3};
// NI 0 -> NI 6
static const unsigned char xpipes_route_0_6[] = {0, 2, 4};
// NI 0 -> NI 7
static const unsigned char xpipes_route_0_7[] = {0, 2, 5};
// NI 0 -> NI 9
static const unsigned char xpipes_route_0_9[] = {0, 1, 1, 4};
// NI 0 -> NI 11
static const unsigned char xpipes_route_0_11[] = {0, 2, 3, 4};
// NI 0 -> NI 12
static const unsigned char xpipes_route_0_12[] = {0, 2, 3, 5};
// NI 0 -> NI 15
static const unsigned char xpipes_route_0_15[] = {1, 2, 2, 3};
// NI 0 -> NI 16
static const unsigned char xpipes_route_0_16[] = {0, 2, 3, 3, 3};
// NI 0 -> NI 17
static const unsigned char xpipes_route_0_17[] = {0, 2, 3, 3, 4};
// NI 1 -> NI 0
static const unsigned char xpipes_route_1_0[] = {0, 2};
// NI 1 -> NI 3
static const unsigned char xpipes_route_1_3[] = {1, 2};
// NI 1 -> NI 5
static const unsigned char xpipes_route_1_5[] = {0, 1, 3};
// NI 1 -> NI 8
static const unsigned char xpipes_route_1_8[] = {1, 1, 3};
// NI 1 -> NI 10
static const unsigned char xpipes_route_1_10[] = {0, 1, 2, 3};
// NI 1 -> NI 13
static const unsigned char xpipes_route_1_13[] = {1, 1, 2, 3};
// NI 1 -> NI 14
static const unsigned char xpipes_route_1_14[] = {0, 1, 2, 2, 2};
// NI 1 -> NI 18
static const unsigned char xpipes_route_1_18[] = {1, 1, 2, 2, 2};
// NI 2 -> NI 0
static const unsigned char xpipes_route_2_0[] = {0, 2};
// NI 2 -> NI 3
static const unsigned char xpipes_route_2_3[] = {1, 2};
// NI 2 -> NI 5
static const unsigned char xpipes_route_2_5[] = {0, 1, 3};
// NI 2 -> NI 8
static const unsigned char xpipes_route_2_8[] = {1, 1, 3};
// NI 2 -> NI 10
static const unsigned char xpipes_route_2_10[] = {0, 1, 2, 3};
// NI 2 -> NI 13
static const unsigned char xpipes_route_2_13[] = {1, 1, 2, 3};
// NI 2 -> NI 14
static const unsigned char xpipes_route_2_14[] = {0, 1, 2, 2, 2};
// NI 2 -> NI 18
static const unsigned char xpipes_route_2_18[] = {1, 1, 2, 2, 2};
// NI 3 -> NI 1
static const unsigned char xpipes_route_3_1[] = {0, 3};
// NI 3 -> NI 2
static const unsigned char xpipes_route_3_2[] = {0, 4};
// NI 3 -> NI 4
static const unsigned char xpipes_route_3_4[] = {3};
// NI 3 -> NI 6
static const unsigned char xpipes_route_3_6[] = {0, 2, 4};
// NI 3 -> NI 7
static const unsigned char xpipes_route_3_7[] = {0, 2, 5};
// NI 3 -> NI 9
static const unsigned char xpipes_route_3_9[] = {1, 4};
// NI 3 -> NI 11
static const unsigned char xpipes_route_3_11[] = {0, 2, 3, 4};
// NI 3 -> NI 12
static const unsigned char xpipes_route_3_12[] = {0, 2, 3, 5};
// NI 3 -> NI 15
static const unsigned char xpipes_route_3_15[] = {0, 0, 1, 2, 2, 3};
// NI 3 -> NI 16
static const unsigned char xpipes_route_3_16[] = {0, 2, 3, 3, 3};
// NI 3 -> NI 17
static const unsigned char xpipes_route_3_17[] = {0, 2, 3, 3, 4};
// NI 4 -> NI 0
static const unsigned char xpipes_route_4_0[] = {0, 0, 2};
// NI 4 -> NI 3
static const unsigned char xpipes_route_4_3[] = {2};
// NI 4 -> NI 5
static const unsigned char xpipes_route_4_5[] = {0, 0, 1, 3};
// NI 4 -> NI 8
static const unsigned char xpipes_route_4_8[] = {1, 3};
// NI 4 -> NI 10
static const unsigned char xpipes_route_4_10[] = {0, 0, 1, 2, 3};
// NI 4 -> NI 13
static const unsigned char xpipes_route_4_13[] = {1, 2, 3};
// NI 4 -> NI 14
static const unsigned char xpipes_route_4_14[] = {0, 0, 1, 2, 2, 2};
// NI 4 -> NI 18
static const unsigned char xpipes_route_4_18[] = {1, 2, 2, 2};
// NI 5 -> NI 1
static const unsigned char xpipes_route_5_1[] = {1, 0, 3};
// NI 5 -> NI 2
static const unsigned char xpipes_route_5_2[] = {1, 0, 4};
// NI 5 -> NI 4
static const unsigned char xpipes_route_5_4[] = {1, 2, 0, 3};
// NI 5 -> NI 6
static const unsigned char xpipes_route_5_6[] = {1, 4};
// NI 5 -> NI 7
static const unsigned char xpipes_route_5_7[] = {1, 5};
// NI 5 -> NI 9
static const unsigned char xpipes_route_5_9[] = {1, 2, 4};
// NI 5 -> NI 11
static const unsigned char xpipes_route_5_11[] = {1, 3, 4};
// NI 5 -> NI 12
static const unsigned char xpipes_route_5_12[] = {1, 3, 5};
// NI 5 -> NI 15
static const unsigned char xpipes_route_5_15[] = {2, 2, 3};
// NI 5 -> NI 16
static const unsigned char xpipes_route_5_16[] = {1, 3, 3, 3};
// NI 5 -> NI 17
static const unsigned char xpipes_route_5_17[] = {1, 3, 3, 4};
// NI 6 -> NI 0
static const unsigned char xpipes_route_6_0[] = {1, 0, 2};
// NI 6 -> NI 3
static const unsigned char xpipes_route_6_3[] = {2, 0, 2};
// NI 6 -> NI 5
static const unsigned char xpipes_route_6_5[] = {1, 3};
// NI 6 -> NI 8
static const unsigned char xpipes_route_6_8[] = {2, 3};
// NI 6 -> NI 10
static const unsigned char xpipes_route_6_10[] = {1, 2, 3};
// NI 6 -> NI 13
static const unsigned char xpipes_route_6_13[] = {2, 2, 3};
// NI 6 -> NI 14
static const unsigned char xpipes_route_6_14[] = {1, 2, 2, 2};
// NI 6 -> NI 18
static const unsigned char xpipes_route_6_18[] = {2, 2, 2, 2};
// NI 7 -> NI 0
static const unsigned char xpipes_route_7_0[] = {1, 0, 2};
// NI 7 -> NI 3
static const unsigned char xpipes_route_7_3[] = {2, 0, 2};
// NI 7 -> NI 5
static const unsigned char xpipes_route_7_5[] = {1, 3};
// NI 7 -> NI 8
static const unsigned char xpipes_route_7_8[] = {2, 3};
// NI 7 -> NI 10
static const unsigned char xpipes_route_7_10[] = {1, 2, 3};
// NI 7 -> NI 13
static const unsigned char xpipes_route_7_13[] = {2, 2, 3};
// NI 7 -> NI 14
static const unsigned char xpipes_route_7_14[] = {1, 2, 2, 2};
// NI 7 -> NI 18
static const unsigned char xpipes_route_7_18[] = {2, 2, 2, 2};
// NI 8 -> NI 1
static const unsigned char xpipes_route_8_1[] = {1, 0, 3};
// NI 8 -> NI 2
static const unsigned char xpipes_route_8_2[] = {1, 0, 4};
// NI 8 -> NI 4
static const unsigned char xpipes_route_8_4[] = {0, 3};
// NI 8 -> NI 6
static const unsigned char xpipes_route_8_6[] = {1, 4};
// NI 8 -> NI 7
static const unsigned char xpipes_route_8_7[] = {1, 5};
// NI 8 -> NI 9
static const unsigned char xpipes_route_8_9[] = {4};
// NI 8 -> NI 11
static const unsigned char xpipes_route_8_11[] = {1, 3, 4};
// NI 8 -> NI 12
static const unsigned char xpipes_route_8_12[] = {1, 3, 5};
// NI 8 -> NI 15
static const unsigned char xpipes_route_8_15[] = {1, 1, 2, 2, 3};
// NI 8 -> NI 16
static const unsigned char xpipes_route_8_16[] = {1, 3, 3, 3};
// NI 8 -> NI 17
static const unsigned char xpipes_route_8_17[] = {1, 3, 3, 4};
// NI 9 -> NI 0
static const unsigned char xpipes_route_9_0[] = {1, 1, 0, 2};
// NI 9 -> NI 3
static const unsigned char xpipes_route_9_3[] = {0, 2};
// NI 9 -> NI 5
static const unsigned char xpipes_route_9_5[] = {1, 1, 3};
// NI 9 -> NI 8
static const unsigned char xpipes_route_9_8[] = {3};
// NI 9 -> NI 10
static const unsigned char xpipes_route_9_10[] = {1, 1, 2, 3};
// NI 9 -> NI 13
static const unsigned char xpipes_route_9_13[] = {2, 3};
// NI 9 -> NI 14
static const unsigned char xpipes_route_9_14[] = {1, 1, 2, 2, 2};
// NI 9 -> NI 18
static const unsigned char xpipes_route_9_18[] = {2, 2, 2};
// NI 10 -> NI 1
static const unsigned char xpipes_route_10_1[] = {1, 0, 0, 3};
// NI 10 -> NI 2
static const unsigned char xpipes_route_10_2[] = {1, 0, 0, 4};
// NI 10 -> NI 4
static const unsigned char xpipes_route_10_4[] = {1, 2, 0, 0, 3};
// NI 10 -> NI 6
static const unsigned char xpipes_route_10_6[] = {1, 0, 4};
// NI 10 -> NI 7
static const unsigned char xpipes_route_10_7[] = {1, 0, 5};
// NI 10 -> NI 9
static const unsigned char xpipes_route_10_9[] = {1, 2, 0, 4};
// NI 10 -> NI 11
static const unsigned char xpipes_route_10_11[] = {1, 4};
// NI 10 -> NI 12
static const unsigned char xpipes_route_10_12[] = {1, 5};
// NI 10 -> NI 15
static const unsigned char xpipes_route_10_15[] = {2, 3};
// NI 10 -> NI 16
static const unsigned char xpipes_route_10_16[] = {1, 3, 3};
// NI 10 -> NI 17
static const unsigned char xpipes_route_10_17[] = {1, 3, 4};
// NI 11 -> NI 0
static const unsigned char xpipes_route_11_0[] = {1, 0, 0, 2};
// NI 11 -> NI 3
static const unsigned char xpipes_route_11_3[] = {2, 0, 0, 2};
// NI 11 -> NI 5
static const unsigned char xpipes_route_11_5[] = {1, 0, 3};
// NI 11 -> NI 8
static const unsigned char xpipes_route_11_8[] = {2, 0, 3};
// NI 11 -> NI 10
static const unsigned char xpipes_route_11_10[] = {1, 3};
// NI 11 -> NI 13
static const unsigned char xpipes_route_11_13[] = {2, 3};
// NI 11 -> NI 14
static const unsigned char xpipes_route_11_14[] = {1, 2, 2};
// NI 11 -> NI 18
static const unsigned char xpipes_route_11_18[] = {2, 2, 2};
// NI 12 -> NI 0
static const unsigned char xpipes_route_12_0[] = {1, 0, 0, 2};
// NI 12 -> NI 3
static const unsigned char xpipes_route_12_3[] = {2, 0, 0, 2};
// NI 12 -> NI 5
static const unsigned char xpipes_route_12_5[] = {1, 0, 3};
// NI 12 -> NI 8
static const unsigned char xpipes_route_12_8[] = {2, 0, 3};
// NI 12 -> NI 10
static const unsigned char xpipes_route_12_10[] = {1, 3};
// NI 12 -> NI 13
static const unsigned char xpipes_route_12_13[] = {2, 3};
// NI 12 -> NI 14
static const unsigned char xpipes_route_12_14[] = {1, 2, 2};
// NI 12 -> NI 18
static const unsigned char xpipes_route_12_18[] = {2, 2, 2};
// NI 13 -> NI 1
static const unsigned char xpipes_route_13_1[] = {1, 0, 0, 3};
// NI 13 -> NI 2
static const unsigned char xpipes_route_13_2[] = {1, 0, 0, 4};
// NI 13 -> NI 4
static const unsigned char xpipes_route_13_4[] = {0, 0, 3};
// NI 13 -> NI 6
static const unsigned char xpipes_route_13_6[] = {1, 0, 4};
// NI 13 -> NI 7
static const unsigned char xpipes_route_13_7[] = {1, 0, 5};
// NI 13 -> NI 9
static const unsigned char xpipes_route_13_9[] = {0, 4};
// NI 13 -> NI 11
static const unsigned char xpipes_route_13_11[] = {1, 4};
// NI 13 -> NI 12
static const unsigned char xpipes_route_13_12[] = {1, 5};
// NI 13 -> NI 15
static const unsigned char xpipes_route_13_15[] = {1, 1, 2, 3};
// NI 13 -> NI 16
static const unsigned char xpipes_route_13_16[] = {1, 3, 3};
// NI 13 -> NI 17
static const unsigned char xpipes_route_13_17[] = {1, 3, 4};
// NI 14 -> NI 1
static const unsigned char xpipes_route_14_1[] = {1, 0, 0, 0, 3};
// NI 14 -> NI 2
static const unsigned char xpipes_route_14_2[] = {1, 0, 0, 0, 4};
// NI 14 -> NI 4
static const unsigned char xpipes_route_14_4[] = {1, 2, 0, 0, 0, 3};
// NI 14 -> NI 6
static const unsigned char xpipes_route_14_6[] = {1, 0, 0, 4};
// NI 14 -> NI 7
static const unsigned char xpipes_route_14_7[] = {1, 0, 0, 5};
// NI 14 -> NI 9
static const unsigned char xpipes_route_14_9[] = {1, 2, 0, 0, 4};
// NI 14 -> NI 11
static const unsigned char xpipes_route_14_11[] = {1, 0, 4};
// NI 14 -> NI 12
static const unsigned char xpipes_route_14_12[] = {1, 0, 5};
// NI 14 -> NI 15
static const unsigned char xpipes_route_14_15[] = {3};
// NI 14 -> NI 16
static const unsigned char xpipes_route_14_16[] = {1, 3};
// NI 14 -> NI 17
static const unsigned char xpipes_route_14_17[] = {1, 4};
// NI 15 -> NI 0
static const unsigned char xpipes_route_15_0[] = {0, 0, 0, 2};
// NI 15 -> NI 3
static const unsigned char xpipes_route_15_3[] = {1, 2, 0, 0, 0, 2};
// NI 15 -> NI 5
static const unsigned char xpipes_route_15_5[] = {0, 0, 3};
// NI 15 -> NI 8
static const unsigned char xpipes_route_15_8[] = {1, 2, 0, 0, 3};
// NI 15 -> NI 10
static const unsigned char xpipes_route_15_10[] = {0, 3};
// NI 15 -> NI 13
static const unsigned char xpipes_route_15_13[] = {1, 2, 0, 3};
// NI 15 -> NI 14
static const unsigned char xpipes_route_15_14[] = {2};
// NI 15 -> NI 18
static const unsigned char xpipes_route_15_18[] = {1, 2, 2};
// NI 16 -> NI 0
static const unsigned char xpipes_route_16_0[] = {1, 0, 0, 0, 2};
// NI 16 -> NI 3
static const unsigned char xpipes_route_16_3[] = {2, 0, 0, 0, 2};
// NI 16 -> NI 5
static const unsigned char xpipes_route_16_5[] = {1, 0, 0, 3};
// NI 16 -> NI 8
static const unsigned char xpipes_route_16_8[] = {2, 0, 0, 3};
// NI 16 -> NI 10
static const unsigned char xpipes_route_16_10[] = {1, 0, 3};
// NI 16 -> NI 13
static const unsigned char xpipes_route_16_13[] = {2, 0, 3};
// NI 16 -> NI 14
static const unsigned char xpipes_route_16_14[] = {1, 2};
// NI 16 -> NI 18
static const unsigned char xpipes_route_16_18[] = {2, 2};
// NI 17 -> NI 0
static const unsigned char xpipes_route_17_0[] = {1, 0, 0, 0, 2};
// NI 17 -> NI 3
static const unsigned char xpipes_route_17_3[] = {2, 0, 0, 0, 2};
// NI 17 -> NI 5
static const unsigned char xpipes_route_17_5[] = {1, 0, 0, 3};
// NI 17 -> NI 8
static const unsigned char xpipes_route_17_8[] = {2, 0, 0, 3};
// NI 17 -> NI 10
static const unsigned char xpipes_route_17_10[] = {1, 0, 3};
// NI 17 -> NI 13
static const unsigned char xpipes_route_17_13[] = {2, 0, 3};
// NI 17 -> NI 14
static const unsigned char xpipes_route_17_14[] = {1, 2};
// NI 17 -> NI 18
static const unsigned char xpipes_route_17_18[] = {2, 2};
// NI 18 -> NI 1
static const unsigned char xpipes_route_18_1[] = {1, 0, 0, 0, 3};
// NI 18 -> NI 2
static const unsigned char xpipes_route_18_2[] = {1, 0, 0, 0, 4};
// NI 18 -> NI 4
static const unsigned char xpipes_route_18_4[] = {0, 0, 0, 3};
// NI 18 -> NI 6
static const unsigned char xpipes_route_18_6[] = {1, 0, 0, 4};
// NI 18 -> NI 7
static const unsigned char xpipes_route_18_7[] = {1, 0, 0, 5};
// NI 18 -> NI 9
static const unsigned char xpipes_route_18_9[] = {0, 0, 4};
// NI 18 -> NI 11
static const unsigned char xpipes_route_18_11[] = {1, 0, 4};
// NI 18 -> NI 12
static const unsigned char xpipes_route_18_12[] = {1, 0, 5};
// NI 18 -> NI 15
static const unsigned char xpipes_route_18_15[] = {1, 1, 3};
// NI 18 -> NI 16
static const unsigned char xpipes_route_18_16[] = {1, 3};
// NI 18 -> NI 17
static const unsigned char xpipes_route_18_17[] = {1, 4};

#endif  // XPIPES_ROUTES_H
